//! A bounded FIFO of whole bursts, owned by one thread: the NIC-ring
//! model's burst hop in isolation. The runtime itself queues nothing —
//! a shard hands each burst straight from its fill to the engine.

/// A bounded FIFO of `T` bursts (not `Sync`; the name is historical).
#[derive(Debug)]
pub struct SpscRing<T> {
    bursts: std::cell::RefCell<std::collections::VecDeque<Vec<T>>>,
    bound: usize,
}

impl<T> SpscRing<T> {
    /// Creates a queue with room for `capacity` bursts (at least one),
    /// rounded up to a power of two as a NIC descriptor ring's depth is.
    pub fn new(capacity: usize) -> Self {
        SpscRing { bursts: Default::default(), bound: capacity.max(1).next_power_of_two() }
    }

    /// Enqueues `burst` whole, leaving it empty; a full queue refuses it
    /// untouched (`false`). An empty burst takes no slot and succeeds.
    pub fn push_burst(&self, burst: &mut Vec<T>) -> bool {
        let mut bursts = self.bursts.borrow_mut();
        let fits = burst.is_empty() || bursts.len() < self.bound;
        if fits && !burst.is_empty() {
            bursts.push_back(std::mem::take(burst));
        }
        fits
    }

    /// Moves the oldest burst into an empty `out`, or appends it to a
    /// non-empty one; returns its length (0 when the queue is empty).
    pub fn pop_burst(&self, out: &mut Vec<T>) -> usize {
        let Some(mut burst) = self.bursts.borrow_mut().pop_front() else { return 0 };
        let n = burst.len();
        if out.is_empty() {
            *out = burst;
        } else {
            out.append(&mut burst);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let ring = SpscRing::new(4);
        for i in 0..5 {
            assert_eq!(ring.push_burst(&mut vec![i]), i < 4, "holds exactly four bursts");
        }
        let mut out = Vec::new();
        while ring.pop_burst(&mut out) > 0 {}
        assert_eq!(out, [0, 1, 2, 3]);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let holds = |capacity| {
            let ring = SpscRing::new(capacity);
            (0..).take_while(|&i| ring.push_burst(&mut vec![i])).count()
        };
        assert_eq!(holds(0), 1);
        assert_eq!(holds(3), 4);
        assert_eq!(holds(8), 8);
        assert_eq!(holds(200), 256);
    }

    #[test]
    fn burst_swap_preserves_order_and_recycles_capacity() {
        let ring = SpscRing::new(2);
        let mut burst: Vec<u32> = (0..32).collect();
        assert!(ring.push_burst(&mut burst) && burst.is_empty(), "a pushed burst comes back empty");
        assert!(ring.push_burst(&mut (32..40).collect()));
        let mut refused = vec![99];
        assert!(!ring.push_burst(&mut refused) && refused == [99], "a refused burst is untouched");
        let mut out = Vec::new();
        assert_eq!(ring.pop_burst(&mut out), 32);
        assert!(out.capacity() >= 32, "the burst's allocation travels to the consumer");
        assert_eq!(ring.pop_burst(&mut out), 8, "a non-empty `out` is appended to");
        assert_eq!(out, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn empty_burst_push_is_a_noop() {
        let ring = SpscRing::new(1);
        assert!(ring.push_burst(&mut Vec::new()) && ring.push_burst(&mut vec![1]), "took a slot");
        assert_eq!(ring.pop_burst(&mut Vec::new()), 1);
    }
}
