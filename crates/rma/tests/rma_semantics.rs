//! Integration tests of MPI-3 RMA semantics in the simulator.

use clampi_datatype::Datatype;
use clampi_rma::{run, run_collect, NetModel, SimConfig, Topology};

#[test]
fn heterogeneous_window_sizes() {
    // Ranks expose differently sized regions (MPI_Win_allocate allows it).
    run(SimConfig::checked(), 4, |p| {
        let my_size = 64 * (p.rank() + 1);
        let mut win = p.win_allocate(my_size);
        {
            let mut m = win.local_mut();
            assert_eq!(m.len(), my_size);
            m.fill(p.rank() as u8);
        }
        p.barrier();
        win.lock_all(p);
        for t in 0..p.nranks() {
            assert_eq!(win.size_of(t), 64 * (t + 1));
            let mut b = [0u8; 1];
            // Read the last byte of each target's region.
            win.get(p, &mut b, t, win.size_of(t) - 1, &Datatype::bytes(1), 1);
            assert_eq!(b[0], t as u8);
        }
        win.flush_all(p);
        win.unlock_all(p);
        p.barrier();
    });
}

#[test]
fn put_then_get_across_epochs_roundtrips() {
    run(SimConfig::checked(), 2, |p| {
        let mut win = p.win_allocate(128);
        p.barrier();
        if p.rank() == 0 {
            win.lock_all(p);
            let data: Vec<u8> = (0..64).collect();
            win.put(p, &data, 1, 32, &Datatype::bytes(64), 1);
            win.unlock_all(p);
            win.lock_all(p);
            let mut back = vec![0u8; 64];
            win.get(p, &mut back, 1, 32, &Datatype::bytes(64), 1);
            win.flush(p, 1);
            assert_eq!(back, data);
            win.unlock_all(p);
        }
        p.barrier();
    });
}

#[test]
fn strided_put_roundtrips_through_strided_get() {
    run(SimConfig::checked(), 2, |p| {
        let mut win = p.win_allocate(256);
        p.barrier();
        if p.rank() == 0 {
            let dt = Datatype::vector(4, 2, 8, Datatype::bytes(4)); // 4 blocks of 8B, stride 32B
            win.lock_all(p);
            let data: Vec<u8> = (100..132).collect(); // 32 payload bytes
            win.put(p, &data, 1, 0, &dt, 1);
            win.flush(p, 1);
            let mut back = vec![0u8; 32];
            win.get(p, &mut back, 1, 0, &dt, 1);
            win.flush(p, 1);
            assert_eq!(back, data);
            win.unlock_all(p);
        }
        p.barrier();
        if p.rank() == 1 {
            let m = win.local_ref();
            // Gaps between the strided blocks stayed zero.
            assert_eq!(m[0..8], [100, 101, 102, 103, 104, 105, 106, 107]);
            assert_eq!(m[8..32], [0u8; 24]);
            assert_eq!(m[32..40], [108, 109, 110, 111, 112, 113, 114, 115]);
        }
        p.barrier();
    });
}

#[test]
fn counters_reflect_traffic() {
    let reports = run(SimConfig::checked(), 2, |p| {
        let mut win = p.win_allocate(4096);
        p.barrier();
        if p.rank() == 0 {
            win.lock_all(p);
            let mut b = vec![0u8; 100];
            for i in 0..7 {
                win.get(p, &mut b, 1, i * 100, &Datatype::bytes(100), 1);
            }
            let src = vec![1u8; 50];
            win.put(p, &src, 1, 2000, &Datatype::bytes(50), 1);
            win.flush_all(p);
            win.unlock_all(p);
        }
        p.barrier();
    });
    let c = reports[0].counters;
    assert_eq!(c.gets, 7);
    assert_eq!(c.bytes_get, 700);
    assert_eq!(c.puts, 1);
    assert_eq!(c.bytes_put, 50);
    assert_eq!(c.flushes, 1);
    // The passive target did nothing.
    assert_eq!(reports[1].counters.gets, 0);
}

#[test]
fn virtual_time_is_identical_across_reruns() {
    let run_once = || {
        run(SimConfig::checked(), 3, |p| {
            let mut win = p.win_allocate(1 << 12);
            p.barrier();
            win.lock_all(p);
            let mut b = vec![0u8; 256];
            for i in 0..50 {
                let t = (p.rank() + 1 + i) % p.nranks();
                win.get(p, &mut b, t, (i * 13) % 3800, &Datatype::bytes(256), 1);
                win.flush(p, t);
            }
            win.unlock_all(p);
            p.barrier();
        })
    };
    let a = run_once();
    let b = run_once();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.elapsed_ns, y.elapsed_ns, "rank {}", x.rank);
        assert_eq!(x.cpu_ns, y.cpu_ns);
        assert_eq!(x.wire_ns, y.wire_ns);
    }
}

#[test]
fn rank_placement_changes_costs() {
    // The same program over two topologies: packing all ranks on one node
    // must be cheaper than spreading them over groups.
    let program = |p: &mut clampi_rma::Process| {
        let mut win = p.win_allocate(4096);
        p.barrier();
        win.lock_all(p);
        let mut b = vec![0u8; 1024];
        for t in 0..p.nranks() {
            if t != p.rank() {
                win.get(p, &mut b, t, 0, &Datatype::bytes(1024), 1);
                win.flush(p, t);
            }
        }
        win.unlock_all(p);
        p.barrier();
    };
    let packed = run(
        SimConfig::bench().with_netmodel(NetModel::with_topology(Topology::packed(8))),
        8,
        program,
    );
    let spread = run(
        SimConfig::bench().with_netmodel(NetModel::with_topology(Topology {
            ranks_per_node: 1,
            nodes_per_chassis: 1,
            chassis_per_group: 1,
        })),
        8,
        program,
    );
    assert!(
        spread[0].elapsed_ns > packed[0].elapsed_ns,
        "remote-group placement ({}) must cost more than same-node ({})",
        spread[0].elapsed_ns,
        packed[0].elapsed_ns
    );
}

#[test]
fn many_ranks_all_to_all_correctness() {
    let n = 12;
    let out = run_collect(SimConfig::checked(), n, |p| {
        let mut win = p.win_allocate(8 * n);
        {
            let mut m = win.local_mut();
            for t in 0..n {
                m[t * 8..(t + 1) * 8].copy_from_slice(&((p.rank() * 100 + t) as u64).to_le_bytes());
            }
        }
        p.barrier();
        win.lock_all(p);
        let mut sum = 0u64;
        for t in 0..n {
            let mut b = [0u8; 8];
            win.get(p, &mut b, t, p.rank() * 8, &Datatype::bytes(8), 1);
            sum += u64::from_le_bytes(b);
        }
        win.flush_all(p);
        win.unlock_all(p);
        p.barrier();
        sum
    });
    for (rep, sum) in &out {
        let want: u64 = (0..n as u64).map(|t| t * 100 + rep.rank as u64).sum();
        assert_eq!(*sum, want, "rank {}", rep.rank);
    }
}

/// `Window::epoch_open` tracks the open access epoch whether or not
/// RMASAN is armed: `lock_all` opens it, a flush inside it leaves it
/// open, and `unlock_all` closes it.
#[test]
fn epoch_open_follows_lock_all_through_flushes() {
    let out = run_collect(SimConfig::default(), 2, |p| {
        let mut win = p.win_allocate(64);
        let mut seen = Vec::new();
        p.barrier();
        seen.push(win.epoch_open());
        win.lock_all(p);
        seen.push(win.epoch_open());
        win.flush(p, 1);
        seen.push(win.epoch_open());
        win.flush(p, 0);
        win.flush_all(p);
        seen.push(win.epoch_open());
        win.unlock_all(p);
        seen.push(win.epoch_open());
        seen
    });
    for (_, seen) in &out {
        assert_eq!(seen, &[false, true, true, true, false]);
    }
}

/// A typed transfer whose `size × count` does not fit a `usize` is
/// rejected in every build, never served wrapped: 2 × (2^63 + 32) bytes
/// would wrap to the 64 bytes of the buffer.
mod typed_overflow {
    use clampi_datatype::Datatype;
    use clampi_rma::{run, Process, SimConfig, Window};

    fn huge() -> Datatype {
        Datatype::bytes((1 << 63) + 32)
    }

    /// Runs `op` on one rank, over a 64-byte window of its own, in an
    /// open epoch.
    fn on_own_window(op: impl Fn(&mut Process, &mut Window, &mut [u8]) + Sync) {
        run(SimConfig::default(), 1, |p| {
            let mut win = p.win_allocate(64);
            win.lock_all(p);
            op(p, &mut win, &mut [0u8; 64]);
        });
    }

    #[test]
    #[should_panic(expected = "datatype extent overflows usize")]
    fn get_rejects_an_overflowing_count() {
        on_own_window(|p, win, buf| win.get(p, buf, 0, 0, &huge(), 2));
    }

    #[test]
    #[should_panic(expected = "datatype extent overflows usize")]
    fn try_get_rejects_an_overflowing_count() {
        on_own_window(|p, win, buf| {
            let _ = win.try_get(p, buf, 0, 0, &huge(), 2);
        });
    }

    #[test]
    #[should_panic(expected = "datatype extent overflows usize")]
    fn try_put_rejects_an_overflowing_count() {
        on_own_window(|p, win, buf| {
            let _ = win.try_put(p, buf, 0, 0, &huge(), 2);
        });
    }
}
