//! The checkpoint fence: what keeps a checkpoint's image and its place in
//! the log in agreement.
//!
//! Three kinds of work change the garbage collector's state in two steps
//! with a gap between them: a commit appends its log record, then pushes
//! its chain entry; a GC pass takes its debt, then settles it (deletes,
//! puts back what failed); a retention sweep pops expired pages, then
//! deletes them. A checkpoint that took its image in
//! such a gap would lose the work (a commit logged before the record but
//! missing from the image) or apply it twice (a commit in the image and
//! replayed after the record). So the work [enters](CheckpointFence::enter)
//! the fence for the length of the gap, and a checkpoint
//! [quiesces](CheckpointFence::quiesce) it: it waits until nothing is
//! inside, then keeps everything out while it takes its image and appends.
//!
//! Entering never waits for a checkpoint that is only waiting. A
//! group-commit leader inside its commit tail waits for peers that have
//! not entered theirs yet; if they queued behind a waiting checkpoint,
//! which waits for the leader, none of the three would move.

use parking_lot::{Condvar, Mutex, MutexGuard};

/// See the module docs.
#[derive(Debug, Default)]
pub struct CheckpointFence {
    /// How many are inside.
    inside: Mutex<usize>,
    empty: Condvar,
}

impl CheckpointFence {
    /// Enter; the returned guard leaves when it drops. Waits only while a
    /// checkpoint holds the fence quiesced.
    pub fn enter(&self) -> FenceEntry<'_> {
        *self.inside.lock() += 1;
        FenceEntry(self)
    }

    /// Wait until nothing is inside, then keep everything out until the
    /// returned guard drops.
    pub fn quiesce(&self) -> Quiesced<'_> {
        let mut inside = self.inside.lock();
        while *inside > 0 {
            self.empty.wait(&mut inside);
        }
        Quiesced { _inside: inside }
    }
}

/// Presence inside a [`CheckpointFence`].
pub struct FenceEntry<'a>(&'a CheckpointFence);

impl Drop for FenceEntry<'_> {
    fn drop(&mut self) {
        let mut inside = self.0.inside.lock();
        *inside -= 1;
        if *inside == 0 {
            self.0.empty.notify_all();
        }
    }
}

/// A quiesced [`CheckpointFence`]: nothing enters until this drops.
pub struct Quiesced<'a> {
    _inside: MutexGuard<'a, usize>,
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    use super::*;

    #[test]
    fn quiesce_waits_for_those_inside_and_keeps_newcomers_out() {
        let (fence, held, entered) = (
            &CheckpointFence::default(),
            &AtomicBool::new(false),
            &AtomicBool::new(false),
        );
        let (release, released) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let inside = fence.enter();
            s.spawn(move || {
                let _q = fence.quiesce();
                held.store(true, Ordering::SeqCst);
                released.recv().unwrap();
            });
            // Entering again does not queue behind the waiting checkpoint.
            let again = fence.enter();
            assert!(!held.load(Ordering::SeqCst), "two are inside");
            drop(again);
            drop(inside);
            while !held.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // While the checkpoint holds the fence, entering waits it out.
            let late = s.spawn(move || {
                let _e = fence.enter();
                entered.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert!(!entered.load(Ordering::SeqCst), "entered a held fence");
            release.send(()).unwrap();
            late.join().unwrap();
            assert!(entered.load(Ordering::SeqCst));
        });
    }
}
