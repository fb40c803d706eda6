//! Partitioned append-only message logs with offsets.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bsync::{Condvar, Mutex, RwLock};

/// One message in a partition log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Message {
    /// Position in the partition (dense, starting at 0).
    pub offset: u64,
    /// Producer-assigned key (used for partition routing).
    pub key: String,
    /// Producer-assigned timestamp (virtual seconds).
    pub timestamp: u64,
    /// Opaque payload.
    pub payload: Vec<u8>,
}

/// Per-topic statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct TopicStats {
    /// Messages across all partitions.
    pub messages: u64,
    /// Payload bytes across all partitions.
    pub bytes: u64,
}

struct Partition {
    log: Mutex<Vec<Message>>,
    cond: Condvar,
}

struct Topic {
    partitions: Vec<Partition>,
}

/// The in-process "cluster": topics, partitions, consumer-group
/// offsets.
pub struct Cluster {
    topics: RwLock<HashMap<String, Arc<Topic>>>,
    commits: Mutex<HashMap<(String, String, usize), u64>>,
}

impl Default for Cluster {
    fn default() -> Self {
        Self::new()
    }
}

impl Cluster {
    /// An empty cluster.
    pub fn new() -> Self {
        Cluster {
            topics: RwLock::new(HashMap::new()),
            commits: Mutex::new(HashMap::new()),
        }
    }

    /// Shared handle.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Create a topic with `partitions` partitions (idempotent; an
    /// existing topic keeps its partition count).
    pub fn create_topic(&self, name: &str, partitions: usize) {
        let mut topics = self.topics.write();
        topics.entry(name.to_string()).or_insert_with(|| {
            Arc::new(Topic {
                partitions: (0..partitions.max(1))
                    .map(|_| Partition {
                        log: Mutex::new(Vec::new()),
                        cond: Condvar::new(),
                    })
                    .collect(),
            })
        });
    }

    fn topic(&self, name: &str) -> Option<Arc<Topic>> {
        self.topics.read().get(name).cloned()
    }

    /// Number of partitions of a topic (0 if absent).
    pub fn partitions(&self, topic: &str) -> usize {
        self.topic(topic).map(|t| t.partitions.len()).unwrap_or(0)
    }

    /// Produce a message, routing by `key` hash. Creates the topic
    /// (1 partition) if needed. Returns (partition, offset).
    pub fn produce(
        &self,
        topic: &str,
        key: &str,
        timestamp: u64,
        payload: Vec<u8>,
    ) -> (usize, u64) {
        if self.topic(topic).is_none() {
            self.create_topic(topic, 1);
        }
        // xcheck:allow(unwrap) — created above when absent
        let t = self.topic(topic).expect("topic just created");
        let part = hash_key(key) as usize % t.partitions.len();
        let p = &t.partitions[part];
        let mut log = p.log.lock();
        let offset = log.len() as u64;
        log.push(Message {
            offset,
            key: key.to_string(),
            timestamp,
            payload,
        });
        drop(log);
        p.cond.notify_all();
        (part, offset)
    }

    /// Fetch up to `max` messages from `offset` (non-blocking).
    pub fn fetch(&self, topic: &str, partition: usize, offset: u64, max: usize) -> Vec<Message> {
        let Some(t) = self.topic(topic) else {
            return Vec::new();
        };
        let Some(p) = t.partitions.get(partition) else {
            return Vec::new();
        };
        let log = p.log.lock();
        let start = (offset as usize).min(log.len());
        let end = (start + max).min(log.len());
        log[start..end].to_vec()
    }

    /// Next offset to be assigned in the partition (= current length).
    pub fn latest_offset(&self, topic: &str, partition: usize) -> u64 {
        self.topic(topic)
            .and_then(|t| {
                t.partitions
                    .get(partition)
                    .map(|p| p.log.lock().len() as u64)
            })
            .unwrap_or(0)
    }

    /// Block until the partition grows beyond `offset` or `timeout`
    /// elapses; returns true when data is available.
    pub fn wait_for(&self, topic: &str, partition: usize, offset: u64, timeout: Duration) -> bool {
        let Some(t) = self.topic(topic) else {
            return false;
        };
        let Some(p) = t.partitions.get(partition) else {
            return false;
        };
        let mut log = p.log.lock();
        if log.len() as u64 > offset {
            return true;
        }
        p.cond.wait_for(&mut log, timeout);
        log.len() as u64 > offset
    }

    /// Commit a consumer-group offset (next offset to read).
    pub fn commit(&self, group: &str, topic: &str, partition: usize, offset: u64) {
        self.commits
            .lock()
            .insert((group.to_string(), topic.to_string(), partition), offset);
    }

    /// Last committed offset for the group (0 if none).
    pub fn committed(&self, group: &str, topic: &str, partition: usize) -> u64 {
        self.commits
            .lock()
            .get(&(group.to_string(), topic.to_string(), partition))
            .copied()
            .unwrap_or(0)
    }

    /// Topic statistics.
    pub fn stats(&self, topic: &str) -> TopicStats {
        let Some(t) = self.topic(topic) else {
            return TopicStats::default();
        };
        let mut s = TopicStats::default();
        for p in &t.partitions {
            let log = p.log.lock();
            s.messages += log.len() as u64;
            s.bytes += log.iter().map(|m| m.payload.len() as u64).sum::<u64>();
        }
        s
    }
}

fn hash_key(key: &str) -> u64 {
    // FNV-1a.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produce_fetch_roundtrip() {
        let c = Cluster::new();
        c.create_topic("rt", 1);
        let (p0, o0) = c.produce("rt", "rrc00", 10, b"a".to_vec());
        let (_, o1) = c.produce("rt", "rrc00", 11, b"b".to_vec());
        assert_eq!((p0, o0, o1), (0, 0, 1));
        let msgs = c.fetch("rt", 0, 0, 10);
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].payload, b"a");
        assert_eq!(msgs[1].offset, 1);
        assert_eq!(c.latest_offset("rt", 0), 2);
    }

    #[test]
    fn fetch_from_offset_and_cap() {
        let c = Cluster::new();
        for k in 0..10u8 {
            c.produce("t", "k", k as u64, vec![k]);
        }
        let msgs = c.fetch("t", 0, 4, 3);
        assert_eq!(msgs.len(), 3);
        assert_eq!(msgs[0].offset, 4);
        assert!(c.fetch("t", 0, 100, 3).is_empty());
        assert!(c.fetch("absent", 0, 0, 3).is_empty());
    }

    #[test]
    fn key_routing_is_stable_across_partitions() {
        let c = Cluster::new();
        c.create_topic("t", 4);
        let (p1, _) = c.produce("t", "rrc00", 0, vec![1]);
        let (p2, _) = c.produce("t", "rrc00", 0, vec![2]);
        assert_eq!(p1, p2, "same key must route to same partition");
        let per_key: Vec<usize> = (0..20)
            .map(|k| c.produce("t", &format!("c{k}"), 0, vec![]).0)
            .collect();
        let distinct: std::collections::HashSet<_> = per_key.iter().collect();
        assert!(distinct.len() > 1, "keys all hashed to one partition");
    }

    #[test]
    fn auto_topic_creation() {
        let c = Cluster::new();
        c.produce("fresh", "k", 0, vec![]);
        assert_eq!(c.partitions("fresh"), 1);
    }

    #[test]
    fn consumer_group_commits() {
        let c = Cluster::new();
        assert_eq!(c.committed("g", "t", 0), 0);
        c.commit("g", "t", 0, 5);
        assert_eq!(c.committed("g", "t", 0), 5);
        c.commit("g", "t", 0, 9);
        assert_eq!(c.committed("g", "t", 0), 9);
        assert_eq!(c.committed("other", "t", 0), 0);
    }

    #[test]
    fn blocking_wait_wakes_on_produce() {
        let c = Cluster::shared();
        c.create_topic("t", 1);
        let c2 = c.clone();
        let h = std::thread::spawn(move || c2.wait_for("t", 0, 0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        c.produce("t", "k", 0, vec![1]);
        assert!(h.join().unwrap());
        // Already satisfied: returns immediately.
        assert!(c.wait_for("t", 0, 0, Duration::from_millis(1)));
        // Timeout path.
        assert!(!c.wait_for("t", 0, 5, Duration::from_millis(5)));
    }

    #[test]
    fn stats_accumulate() {
        let c = Cluster::new();
        c.produce("t", "k", 0, vec![0; 10]);
        c.produce("t", "k", 0, vec![0; 5]);
        let s = c.stats("t");
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 15);
    }
}
