//! Priority-ordered flow tables with timeouts.

use crate::actions::Instruction;
use crate::counters::{FlowCounters, TableCounters};
use crate::flow_match::FlowMatch;
use horse_types::{FlowKey, PortNo, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Why a flow entry was removed (reported in FlowRemoved messages).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RemovalReason {
    /// No traffic for `idle_timeout`.
    IdleTimeout,
    /// Lifetime exceeded `hard_timeout`.
    HardTimeout,
    /// Controller deleted it.
    Delete,
}

/// One flow-table entry.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlowEntry {
    /// Match priority — higher wins.
    pub priority: u16,
    /// The wildcard match.
    pub matcher: FlowMatch,
    /// Instructions executed on match.
    pub instructions: Vec<Instruction>,
    /// Opaque controller tag (identifies the owning policy module).
    pub cookie: u64,
    /// Remove after this long without traffic (zero = never).
    pub idle_timeout: SimDuration,
    /// Remove this long after installation (zero = never).
    pub hard_timeout: SimDuration,
    /// Counters.
    pub counters: FlowCounters,
    /// Notify the controller when this entry is removed.
    pub notify_removal: bool,
}

impl FlowEntry {
    /// A permanent entry with the given match, priority and instructions.
    pub fn new(priority: u16, matcher: FlowMatch, instructions: Vec<Instruction>) -> Self {
        FlowEntry {
            priority,
            matcher,
            instructions,
            cookie: 0,
            idle_timeout: SimDuration::ZERO,
            hard_timeout: SimDuration::ZERO,
            counters: FlowCounters::default(),
            notify_removal: false,
        }
    }

    /// Builder: set the cookie.
    pub fn with_cookie(mut self, cookie: u64) -> Self {
        self.cookie = cookie;
        self
    }

    /// Builder: set the idle timeout.
    pub fn with_idle_timeout(mut self, t: SimDuration) -> Self {
        self.idle_timeout = t;
        self
    }

    /// Builder: set the hard timeout.
    pub fn with_hard_timeout(mut self, t: SimDuration) -> Self {
        self.hard_timeout = t;
        self
    }

    /// Builder: request a FlowRemoved notification.
    pub fn with_removal_notification(mut self) -> Self {
        self.notify_removal = true;
        self
    }

    /// True when `other` is the same rule: everything but the counters
    /// is equal.
    pub fn same_rule(&self, other: &FlowEntry) -> bool {
        self.priority == other.priority
            && self.matcher == other.matcher
            && self.instructions == other.instructions
            && self.cookie == other.cookie
            && self.idle_timeout == other.idle_timeout
            && self.hard_timeout == other.hard_timeout
            && self.notify_removal == other.notify_removal
    }

    fn expired_at(&self, now: SimTime) -> Option<RemovalReason> {
        if !self.hard_timeout.is_zero()
            && now.saturating_since(self.counters.created) >= self.hard_timeout
        {
            return Some(RemovalReason::HardTimeout);
        }
        if !self.idle_timeout.is_zero()
            && now.saturating_since(self.counters.last_used) >= self.idle_timeout
        {
            return Some(RemovalReason::IdleTimeout);
        }
        None
    }
}

/// A single flow table: entries sorted by descending priority; insertion
/// order breaks ties (first-installed wins), which keeps lookups
/// deterministic.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FlowTable {
    entries: Vec<FlowEntry>,
    /// Lookup/match counters.
    pub counters: TableCounters,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in match order.
    pub fn entries(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.iter()
    }

    /// Installs an entry (stamping its creation time). An existing entry
    /// with identical match and priority is **replaced**, per OpenFlow
    /// `ADD` semantics; its counters are reset.
    pub fn insert(&mut self, entry: FlowEntry, now: SimTime) {
        let at = self.position_of(&entry);
        self.place(at, entry, now);
    }

    /// Installs an entry unless the table already holds the same rule
    /// ([`FlowEntry::same_rule`]), in which case nothing changes — not
    /// even the counters. Returns whether the table changed.
    ///
    /// `hint` is a caller-kept cursor: the position right after the
    /// entry the previous call found or placed. A caller re-sending a
    /// table's rules in table order hits the cursor every time, so the
    /// identity check costs one comparison instead of a scan.
    pub fn reconcile(&mut self, entry: &FlowEntry, now: SimTime, hint: &mut usize) -> bool {
        let at = match self.entries.get(*hint) {
            Some(e) if e.priority == entry.priority && e.matcher == entry.matcher => Some(*hint),
            _ => self.position_of(entry),
        };
        if let Some(pos) = at {
            if self.entries[pos].same_rule(entry) {
                *hint = pos + 1;
                return false;
            }
        }
        *hint = self.place(at, entry.clone(), now) + 1;
        true
    }

    /// Position of the entry with `entry`'s match and priority, if any.
    fn position_of(&self, entry: &FlowEntry) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.priority == entry.priority && e.matcher == entry.matcher)
    }

    /// Stores `entry` with fresh counters, replacing the entry at
    /// `existing` or else inserting it after every entry of higher or
    /// equal priority. Returns its position.
    fn place(&mut self, existing: Option<usize>, mut entry: FlowEntry, now: SimTime) -> usize {
        entry.counters = FlowCounters::new(now);
        if let Some(pos) = existing {
            self.entries[pos] = entry;
            return pos;
        }
        // keep sorted by descending priority, stable for equal priorities
        let pos = self
            .entries
            .partition_point(|e| e.priority >= entry.priority);
        self.entries.insert(pos, entry);
        pos
    }

    /// Highest-priority entry matching `(in_port, key)`; updates table
    /// counters and the entry's packet counter / last-used stamp.
    pub fn lookup(&mut self, in_port: PortNo, key: &FlowKey, now: SimTime) -> Option<&FlowEntry> {
        self.counters.lookups += 1;
        let idx = self
            .entries
            .iter()
            .position(|e| e.matcher.matches(in_port, key))?;
        self.counters.matches += 1;
        let e = &mut self.entries[idx];
        e.counters.credit(1, horse_types::ByteSize::ZERO, now);
        Some(&self.entries[idx])
    }

    /// Read-only lookup: no counter updates (used by validators and tests).
    pub fn peek(&self, in_port: PortNo, key: &FlowKey) -> Option<&FlowEntry> {
        self.entries
            .iter()
            .find(|e| e.matcher.matches(in_port, key))
    }

    /// Credits bytes/packets to the entry identified by `(priority, match)`.
    /// Returns `false` if no such entry exists (e.g. it expired meanwhile).
    pub fn credit(
        &mut self,
        priority: u16,
        matcher: &FlowMatch,
        packets: u64,
        bytes: horse_types::ByteSize,
        now: SimTime,
    ) -> bool {
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.priority == priority && e.matcher == *matcher)
        {
            e.counters.credit(packets, bytes, now);
            true
        } else {
            false
        }
    }

    /// Deletes entries. With `strict`, only an exact `(priority, match)`
    /// pair is removed; otherwise every entry whose match is a subset of
    /// `matcher` goes (OpenFlow non-strict delete). Removed entries are
    /// returned together with the reason `Delete`.
    pub fn delete(
        &mut self,
        matcher: &FlowMatch,
        priority: Option<u16>,
        strict: bool,
    ) -> Vec<FlowEntry> {
        let mut removed = Vec::new();
        self.entries.retain(|e| {
            let matches = if strict {
                Some(e.priority) == priority && e.matcher == *matcher
            } else {
                e.matcher.is_subset_of(matcher)
            };
            if matches {
                removed.push(e.clone());
                false
            } else {
                true
            }
        });
        removed
    }

    /// Removes expired entries, returning them with their reasons.
    pub fn expire(&mut self, now: SimTime) -> Vec<(FlowEntry, RemovalReason)> {
        let mut out = Vec::new();
        self.entries.retain(|e| match e.expired_at(now) {
            Some(reason) => {
                out.push((e.clone(), reason));
                false
            }
            None => true,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::Instruction;
    use horse_types::{ByteSize, MacAddr};
    use std::net::Ipv4Addr;

    fn key() -> FlowKey {
        FlowKey::tcp(
            MacAddr::local_from_id(1),
            MacAddr::local_from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            40000,
            80,
        )
    }

    fn entry(priority: u16, m: FlowMatch, port: u16) -> FlowEntry {
        FlowEntry::new(priority, m, vec![Instruction::output(PortNo(port))])
    }

    #[test]
    fn highest_priority_wins() {
        let mut t = FlowTable::new();
        t.insert(entry(10, FlowMatch::ANY, 1), SimTime::ZERO);
        t.insert(entry(100, FlowMatch::ANY.with_tp_dst(80), 2), SimTime::ZERO);
        let e = t.lookup(PortNo(1), &key(), SimTime::ZERO).unwrap();
        assert_eq!(e.priority, 100);
    }

    #[test]
    fn insertion_order_breaks_priority_ties() {
        let mut t = FlowTable::new();
        t.insert(entry(10, FlowMatch::ANY.with_tp_dst(80), 1), SimTime::ZERO);
        t.insert(
            entry(
                10,
                FlowMatch::ANY.with_ip_proto(horse_types::IpProtocol::Tcp),
                2,
            ),
            SimTime::ZERO,
        );
        let e = t.peek(PortNo(1), &key()).unwrap();
        assert_eq!(e.instructions, vec![Instruction::output(PortNo(1))]);
    }

    #[test]
    fn add_replaces_same_match_and_priority() {
        let mut t = FlowTable::new();
        t.insert(entry(10, FlowMatch::ANY, 1), SimTime::ZERO);
        t.insert(entry(10, FlowMatch::ANY, 2), SimTime::from_secs(1));
        assert_eq!(t.len(), 1);
        let e = t.peek(PortNo(1), &key()).unwrap();
        assert_eq!(e.instructions, vec![Instruction::output(PortNo(2))]);
    }

    #[test]
    fn reconcile_leaves_identical_rules_alone() {
        let mut t = FlowTable::new();
        let mut hint = 0;
        assert!(t.reconcile(&entry(10, FlowMatch::ANY, 1), SimTime::ZERO, &mut hint));
        t.lookup(PortNo(1), &key(), SimTime::from_secs(1));
        // identical: untouched, counters kept
        assert!(!t.reconcile(
            &entry(10, FlowMatch::ANY, 1),
            SimTime::from_secs(2),
            &mut hint
        ));
        let e = t.entries().next().unwrap();
        assert_eq!((e.counters.packets, e.counters.created), (1, SimTime::ZERO));
        // different instructions: replaced like Add, counters reset
        assert!(t.reconcile(
            &entry(10, FlowMatch::ANY, 2),
            SimTime::from_secs(3),
            &mut hint
        ));
        assert_eq!(t.len(), 1);
        let e = t.entries().next().unwrap();
        assert_eq!(e.instructions, vec![Instruction::output(PortNo(2))]);
        assert_eq!(
            (e.counters.packets, e.counters.created),
            (0, SimTime::from_secs(3))
        );
    }

    #[test]
    fn reconcile_matches_add_whatever_the_hint() {
        let rules: Vec<FlowEntry> = (0..6u16)
            .map(|i| entry(10 + i % 3, FlowMatch::ANY.with_tp_dst(i), i))
            .collect();
        let mut added = FlowTable::new();
        let mut reconciled = FlowTable::new();
        for (round, hint0) in [(0usize, 0usize), (1, 4), (2, 99)] {
            let mut hint = hint0;
            for (i, r) in rules.iter().enumerate() {
                let mut r = r.clone();
                if round == 2 && i == 3 {
                    r.cookie = 7; // one changed rule in the last round
                }
                added.insert(r.clone(), SimTime::ZERO);
                reconciled.reconcile(&r, SimTime::ZERO, &mut hint);
            }
        }
        let a: Vec<_> = added.entries().collect();
        let b: Vec<_> = reconciled.entries().collect();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!(x.same_rule(y), "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn lookup_updates_counters() {
        let mut t = FlowTable::new();
        t.insert(entry(10, FlowMatch::ANY, 1), SimTime::ZERO);
        t.lookup(PortNo(1), &key(), SimTime::from_secs(3));
        let e = t.entries().next().unwrap();
        assert_eq!(e.counters.packets, 1);
        assert_eq!(e.counters.last_used, SimTime::from_secs(3));
        assert_eq!(t.counters.lookups, 1);
        assert_eq!(t.counters.matches, 1);
    }

    #[test]
    fn miss_counts_lookup_only() {
        let mut t = FlowTable::new();
        t.insert(entry(10, FlowMatch::ANY.with_tp_dst(443), 1), SimTime::ZERO);
        assert!(t.lookup(PortNo(1), &key(), SimTime::ZERO).is_none());
        assert_eq!(t.counters.lookups, 1);
        assert_eq!(t.counters.matches, 0);
    }

    #[test]
    fn credit_by_identity() {
        let mut t = FlowTable::new();
        let m = FlowMatch::ANY.with_tp_dst(80);
        t.insert(entry(10, m, 1), SimTime::ZERO);
        assert!(t.credit(10, &m, 5, ByteSize::bytes(7500), SimTime::from_secs(1)));
        assert!(!t.credit(11, &m, 1, ByteSize::bytes(1), SimTime::from_secs(1)));
        let e = t.entries().next().unwrap();
        assert_eq!(e.counters.bytes, 7500);
        assert_eq!(e.counters.packets, 5);
    }

    #[test]
    fn strict_delete_removes_exact_only() {
        let mut t = FlowTable::new();
        let m = FlowMatch::ANY.with_tp_dst(80);
        t.insert(entry(10, m, 1), SimTime::ZERO);
        t.insert(entry(20, m, 2), SimTime::ZERO);
        let removed = t.delete(&m, Some(10), true);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].priority, 10);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn nonstrict_delete_removes_subsets() {
        let mut t = FlowTable::new();
        t.insert(entry(10, FlowMatch::ANY.with_tp_dst(80), 1), SimTime::ZERO);
        t.insert(
            entry(
                20,
                FlowMatch::ANY
                    .with_tp_dst(80)
                    .with_ip_proto(horse_types::IpProtocol::Tcp),
                2,
            ),
            SimTime::ZERO,
        );
        t.insert(entry(30, FlowMatch::ANY.with_tp_dst(443), 3), SimTime::ZERO);
        let removed = t.delete(&FlowMatch::ANY.with_tp_dst(80), None, false);
        assert_eq!(removed.len(), 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn hard_timeout_expires() {
        let mut t = FlowTable::new();
        t.insert(
            entry(10, FlowMatch::ANY, 1).with_hard_timeout(SimDuration::from_secs(10)),
            SimTime::ZERO,
        );
        assert!(t.expire(SimTime::from_secs(9)).is_empty());
        let ex = t.expire(SimTime::from_secs(10));
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].1, RemovalReason::HardTimeout);
        assert!(t.is_empty());
    }

    #[test]
    fn idle_timeout_resets_on_traffic() {
        let mut t = FlowTable::new();
        t.insert(
            entry(10, FlowMatch::ANY, 1).with_idle_timeout(SimDuration::from_secs(5)),
            SimTime::ZERO,
        );
        // traffic at t=4 pushes last_used forward
        t.lookup(PortNo(1), &key(), SimTime::from_secs(4));
        assert!(t.expire(SimTime::from_secs(8)).is_empty());
        let ex = t.expire(SimTime::from_secs(9));
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].1, RemovalReason::IdleTimeout);
    }

    #[test]
    fn hard_timeout_beats_idle_when_both_due() {
        let mut t = FlowTable::new();
        t.insert(
            entry(10, FlowMatch::ANY, 1)
                .with_idle_timeout(SimDuration::from_secs(5))
                .with_hard_timeout(SimDuration::from_secs(5)),
            SimTime::ZERO,
        );
        let ex = t.expire(SimTime::from_secs(5));
        assert_eq!(ex[0].1, RemovalReason::HardTimeout);
    }

    #[test]
    fn zero_timeouts_never_expire() {
        let mut t = FlowTable::new();
        t.insert(entry(10, FlowMatch::ANY, 1), SimTime::ZERO);
        assert!(t.expire(SimTime::from_secs(1_000_000)).is_empty());
    }
}
