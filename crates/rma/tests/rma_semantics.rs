//! Integration tests of MPI-3 RMA semantics in the simulator.

use clampi_datatype::Datatype;
use clampi_rma::{run, run_collect, LockKind, NetModel, SimConfig, Topology};

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
            win.lock(p, LockKind::Exclusive, 1);
            let data: Vec<u8> = (0..64).collect();
            win.put(p, &data, 1, 32, &Datatype::bytes(64), 1);
            win.unlock(p, 1);
            win.lock(p, LockKind::Shared, 1);
            let mut back = vec![0u8; 64];
            win.get(p, &mut back, 1, 32, &Datatype::bytes(64), 1);
            win.flush(p, 1);
            assert_eq!(back, data);
            win.unlock(p, 1);
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
            win.lock(p, LockKind::Shared, 1);
            let data: Vec<u8> = (100..132).collect(); // 32 payload bytes
            win.put(p, &data, 1, 0, &dt, 1);
            win.flush(p, 1);
            let mut back = vec![0u8; 32];
            win.get(p, &mut back, 1, 0, &dt, 1);
            win.flush(p, 1);
            assert_eq!(back, data);
            win.unlock(p, 1);
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

#[test]
fn exclusive_lock_serializes_initiators() {
    // Two initiators increment a remote counter under exclusive locks;
    // the result must be exact (no lost updates).
    let rounds = 20;
    run(SimConfig::default(), 3, |p| {
        let mut win = p.win_allocate(8);
        p.barrier();
        if p.rank() != 2 {
            for _ in 0..rounds {
                win.lock(p, LockKind::Exclusive, 2);
                let mut b = [0u8; 8];
                win.get(p, &mut b, 2, 0, &Datatype::bytes(8), 1);
                win.flush(p, 2);
                let v = u64::from_le_bytes(b) + 1;
                win.put(p, &v.to_le_bytes(), 2, 0, &Datatype::bytes(8), 1);
                win.unlock(p, 2);
            }
        }
        p.barrier();
        if p.rank() == 2 {
            let m = win.local_ref();
            let v = u64::from_le_bytes(m[..8].try_into().unwrap());
            assert_eq!(v, 2 * rounds, "lost updates under exclusive locks");
        }
        p.barrier();
    });
}

mod accumulate {
    use clampi_datatype::Datatype;
    use clampi_rma::{run, AccumulateOp, LockKind, SimConfig};

    #[test]
    fn concurrent_sum_accumulates_are_exact() {
        // Every rank adds its (rank+1) value into rank 0's counter 10
        // times; the total must be exact despite concurrency.
        let n = 6;
        let rounds = 10;
        let reports = run(SimConfig::default(), n, |p| {
            let mut win = p.win_allocate(8);
            p.barrier();
            win.lock_all(p);
            let contrib = (p.rank() + 1) as f64;
            for _ in 0..rounds {
                win.accumulate(
                    p,
                    &contrib.to_le_bytes(),
                    0,
                    0,
                    &Datatype::double(),
                    1,
                    AccumulateOp::Sum,
                );
            }
            win.flush_all(p);
            win.unlock_all(p);
            p.barrier();
            if p.rank() == 0 {
                let m = win.local_ref();
                let v = f64::from_le_bytes(m[..8].try_into().unwrap());
                let want = (rounds * n * (n + 1) / 2) as f64;
                assert_eq!(v, want, "lost accumulate updates");
            }
            p.barrier();
        });
        assert!(reports[1].counters.puts >= rounds as u64);
    }

    #[test]
    fn min_max_and_replace() {
        run(SimConfig::default(), 2, |p| {
            let mut win = p.win_allocate(24);
            if p.rank() == 1 {
                let mut m = win.local_mut();
                m[..8].copy_from_slice(&5.0f64.to_le_bytes());
                m[8..16].copy_from_slice(&5.0f64.to_le_bytes());
                m[16..24].copy_from_slice(&5.0f64.to_le_bytes());
            }
            p.barrier();
            if p.rank() == 0 {
                win.lock(p, LockKind::Exclusive, 1);
                win.accumulate(
                    p,
                    &9.0f64.to_le_bytes(),
                    1,
                    0,
                    &Datatype::double(),
                    1,
                    AccumulateOp::Max,
                );
                win.accumulate(
                    p,
                    &9.0f64.to_le_bytes(),
                    1,
                    8,
                    &Datatype::double(),
                    1,
                    AccumulateOp::Min,
                );
                win.accumulate(
                    p,
                    &9.0f64.to_le_bytes(),
                    1,
                    16,
                    &Datatype::double(),
                    1,
                    AccumulateOp::Replace,
                );
                win.unlock(p, 1);
            }
            p.barrier();
            if p.rank() == 1 {
                let m = win.local_ref();
                let at = |o: usize| f64::from_le_bytes(m[o..o + 8].try_into().unwrap());
                assert_eq!(at(0), 9.0, "max");
                assert_eq!(at(8), 5.0, "min");
                assert_eq!(at(16), 9.0, "replace");
            }
            p.barrier();
        });
    }

    #[test]
    fn strided_accumulate_touches_only_blocks() {
        run(SimConfig::default(), 2, |p| {
            let mut win = p.win_allocate(64);
            p.barrier();
            if p.rank() == 0 {
                // Two f64 blocks with an 8-byte gap between them.
                let dt = Datatype::vector(2, 1, 2, Datatype::double());
                let src = [1.5f64.to_le_bytes(), 2.5f64.to_le_bytes()].concat();
                win.lock(p, LockKind::Shared, 1);
                win.accumulate(p, &src, 1, 0, &dt, 1, AccumulateOp::Sum);
                win.unlock(p, 1);
            }
            p.barrier();
            if p.rank() == 1 {
                let m = win.local_ref();
                let at = |o: usize| f64::from_le_bytes(m[o..o + 8].try_into().unwrap());
                assert_eq!(at(0), 1.5);
                assert_eq!(at(8), 0.0, "gap untouched");
                assert_eq!(at(16), 2.5);
            }
            p.barrier();
        });
    }

    #[test]
    #[should_panic(expected = "f64-aligned")]
    fn numeric_accumulate_rejects_unaligned_payload() {
        run(SimConfig::default(), 1, |p| {
            let mut win = p.win_allocate(16);
            win.lock_all(p);
            let src = [0u8; 4];
            win.accumulate(p, &src, 0, 0, &Datatype::bytes(4), 1, AccumulateOp::Sum);
        });
    }
}

mod allreduce {
    use clampi_rma::{run_collect, SimConfig};

    #[test]
    fn sum_and_max_reduce_over_all_ranks() {
        let out = run_collect(SimConfig::default(), 5, |p| {
            let s = p.allreduce_sum((p.rank() + 1) as f64);
            let m = p.allreduce_max(p.rank() as f64 * 2.0);
            (s, m)
        });
        for (_, (s, m)) in &out {
            assert_eq!(*s, 15.0);
            assert_eq!(*m, 8.0);
        }
    }
}

mod atomics {
    use clampi_rma::{run, run_collect, LockKind, SimConfig};

    #[test]
    fn fetch_and_add_is_exact_under_contention() {
        let n = 8;
        let rounds = 25u64;
        let out = run_collect(SimConfig::default(), n, |p| {
            let mut win = p.win_allocate(8);
            p.barrier();
            let mut seen = Vec::new();
            for _ in 0..rounds {
                let prev = win.fetch_and_op(p, 0, 0, 1, |a, b| a.wrapping_add(b));
                seen.push(prev);
            }
            p.barrier();
            let total = if p.rank() == 0 {
                let m = win.local_ref();
                u64::from_le_bytes(m[..8].try_into().unwrap())
            } else {
                0
            };
            p.barrier();
            (seen, total)
        });
        assert_eq!(out[0].1 .1, n as u64 * rounds, "lost atomic increments");
        // Every fetched previous value is unique: a total order exists.
        let mut all: Vec<u64> = out.iter().flat_map(|(_, (s, _))| s.clone()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), (n as u64 * rounds) as usize, "duplicate tickets");
    }

    #[test]
    fn cas_implements_a_spin_lock() {
        // A CAS-based lock guarding a non-atomic counter: the final count
        // proves mutual exclusion.
        let n = 4;
        let rounds = 10u64;
        run(SimConfig::default(), n, |p| {
            let mut win = p.win_allocate(16); // [lock | counter]
            p.barrier();
            for _ in 0..rounds {
                while win.compare_and_swap(p, 0, 0, 0, 1 + p.rank() as u64) != 0 {}
                // Critical section: read-modify-write the plain counter.
                // The CAS provides mutual exclusion (and RMASAN's
                // happens-before edges), but MPI still requires a
                // passive-target epoch around the get/put themselves.
                win.lock(p, LockKind::Shared, 0);
                let mut b = [0u8; 8];
                win.get(p, &mut b, 0, 8, &clampi_datatype::Datatype::bytes(8), 1);
                win.flush(p, 0);
                let v = u64::from_le_bytes(b) + 1;
                win.put(
                    p,
                    &v.to_le_bytes(),
                    0,
                    8,
                    &clampi_datatype::Datatype::bytes(8),
                    1,
                );
                win.unlock(p, 0);
                let released = win.compare_and_swap(p, 0, 0, 1 + p.rank() as u64, 0);
                assert_eq!(released, 1 + p.rank() as u64, "lost the lock mid-section");
            }
            p.barrier();
            if p.rank() == 0 {
                let m = win.local_ref();
                let v = u64::from_le_bytes(m[8..16].try_into().unwrap());
                assert_eq!(v, n as u64 * rounds);
            }
            p.barrier();
        });
    }

    #[test]
    fn fetch_and_op_supports_max() {
        run(SimConfig::default(), 5, |p| {
            let mut win = p.win_allocate(8);
            p.barrier();
            win.fetch_and_op(p, 0, 0, (p.rank() as u64 + 1) * 7, u64::max);
            p.barrier();
            if p.rank() == 0 {
                let m = win.local_ref();
                assert_eq!(u64::from_le_bytes(m[..8].try_into().unwrap()), 35);
            }
            p.barrier();
        });
    }
}

mod typed_origin {
    use clampi_datatype::Datatype;
    use clampi_rma::{run, SimConfig};

    #[test]
    fn get_typed_scatters_into_a_strided_origin() {
        run(SimConfig::checked(), 2, |p| {
            let mut win = p.win_allocate(64);
            if p.rank() == 1 {
                let mut m = win.local_mut();
                for (i, b) in m.iter_mut().enumerate() {
                    *b = i as u8;
                }
            }
            p.barrier();
            if p.rank() == 0 {
                win.lock_all(p);
                // Target: 8 contiguous bytes; origin: 4 blocks of 2 bytes
                // with stride 4 (a column of a 2-wide local matrix).
                let origin = Datatype::vector(4, 2, 4, Datatype::bytes(1));
                let mut dst = vec![0xEE; 16];
                win.get_typed(p, &mut dst, &origin, 1, 1, 8, &Datatype::bytes(8), 1);
                win.flush(p, 1);
                assert_eq!(
                    dst,
                    vec![
                        8, 9, 0xEE, 0xEE, 10, 11, 0xEE, 0xEE, 12, 13, 0xEE, 0xEE, 14, 15, 0xEE,
                        0xEE
                    ]
                );
                win.unlock_all(p);
            }
            p.barrier();
        });
    }

    #[test]
    #[should_panic(expected = "payload sizes differ")]
    fn size_mismatch_rejected() {
        run(SimConfig::default(), 1, |p| {
            let mut win = p.win_allocate(64);
            win.lock_all(p);
            let mut dst = vec![0u8; 4];
            win.get_typed(
                p,
                &mut dst,
                &Datatype::bytes(4),
                1,
                0,
                0,
                &Datatype::bytes(8),
                1,
            );
        });
    }
}

mod pscw {
    use clampi_datatype::Datatype;
    use clampi_rma::{run, SimConfig};

    #[test]
    fn post_start_complete_wait_roundtrip() {
        // Rank 0 exposes; ranks 1 and 2 access within a PSCW epoch.
        run(SimConfig::checked(), 3, |p| {
            let mut win = p.win_allocate(64);
            if p.rank() == 0 {
                win.local_mut()[..4].copy_from_slice(&[9, 8, 7, 6]);
                win.post(p, &[1, 2]);
                win.wait(p, &[1, 2]);
                assert_eq!(win.epoch(), 1, "wait closes the exposure epoch");
            } else {
                win.start(p, &[0]);
                let mut b = [0u8; 4];
                win.get(p, &mut b, 0, 0, &Datatype::bytes(4), 1);
                win.complete(p);
                assert_eq!(b, [9, 8, 7, 6]);
                assert_eq!(win.epoch(), 1, "complete closes the access epoch");
            }
            p.barrier();
        });
    }

    #[test]
    fn start_blocks_until_post() {
        // The accessor starts immediately; the target posts only after a
        // deliberate delay — start must not return early (the data is
        // written before post, so a correct start sees it).
        run(SimConfig::default(), 2, |p| {
            let mut win = p.win_allocate(8);
            if p.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
                win.local_mut()[..8].copy_from_slice(&42u64.to_le_bytes());
                win.post(p, &[1]);
                win.wait(p, &[1]);
            } else {
                win.start(p, &[0]);
                let mut b = [0u8; 8];
                win.get(p, &mut b, 0, 0, &Datatype::bytes(8), 1);
                win.complete(p);
                assert_eq!(u64::from_le_bytes(b), 42, "start returned before post");
            }
            p.barrier();
        });
    }

    #[test]
    fn wait_blocks_until_all_accessors_complete() {
        run(SimConfig::default(), 3, |p| {
            let mut win = p.win_allocate(24);
            if p.rank() == 0 {
                win.post(p, &[1, 2]);
                win.wait(p, &[1, 2]);
                // Both accessors' puts must be visible once wait returns.
                let m = win.local_ref();
                assert_eq!(m[8], 1);
                assert_eq!(m[16], 2);
            } else {
                win.start(p, &[0]);
                let src = [p.rank() as u8];
                win.put(p, &src, 0, p.rank() * 8, &Datatype::bytes(1), 1);
                if p.rank() == 2 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                win.complete(p);
            }
            p.barrier();
        });
    }
}

mod requests {
    use clampi_datatype::Datatype;
    use clampi_rma::{run, SimConfig};

    #[test]
    fn rget_completes_individually_without_closing_the_epoch() {
        run(SimConfig::checked(), 2, |p| {
            let mut win = p.win_allocate(1 << 16);
            if p.rank() == 1 {
                win.local_mut().fill(5);
            }
            p.barrier();
            if p.rank() == 0 {
                win.lock_all(p);
                let mut small = [0u8; 8];
                let mut big = vec![0u8; 32 << 10];
                let r_small = win.iget(p, &mut small, 1, 0, &Datatype::bytes(8), 1);
                let r_big = win.iget(p, &mut big, 1, 64, &Datatype::bytes(32 << 10), 1);
                // Completing only the small one must not wait for the big.
                let t0 = p.now();
                win.wait_request(p, r_small);
                let t_small = p.now() - t0;
                assert_eq!(small, [5u8; 8]);
                assert_eq!(win.epoch(), 0, "wait_request must not close the epoch");
                win.wait_request(p, r_big);
                let t_both = p.now() - t0;
                assert!(
                    t_both > t_small,
                    "big transfer completed no later than the small one"
                );
                assert_eq!(p.clock().outstanding_count(), 0);
                win.unlock_all(p);
            }
            p.barrier();
        });
    }

    #[test]
    fn waiting_twice_on_a_request_is_harmless() {
        run(SimConfig::default(), 2, |p| {
            let mut win = p.win_allocate(64);
            p.barrier();
            if p.rank() == 0 {
                win.lock_all(p);
                let mut b = [0u8; 8];
                let r = win.iget(p, &mut b, 1, 0, &Datatype::bytes(8), 1);
                win.wait_request(p, r);
                let t = p.now();
                win.wait_request(p, r); // already retired: no-op
                assert_eq!(p.now(), t);
                win.unlock_all(p);
            }
            p.barrier();
        });
    }
}

#[test]
fn rput_completes_individually() {
    use clampi_rma::SimConfig;
    run(SimConfig::default(), 2, |p| {
        let mut win = p.win_allocate(64);
        p.barrier();
        if p.rank() == 0 {
            win.lock_all(p);
            let data = [3u8; 16];
            let r = win.rput(p, &data, 1, 8, &Datatype::bytes(16), 1);
            win.wait_request(p, r);
            assert_eq!(p.clock().outstanding_count(), 0);
            win.unlock_all(p);
        }
        p.barrier();
        if p.rank() == 1 {
            assert_eq!(&win.local_ref()[8..24], &[3u8; 16]);
        }
        p.barrier();
    });
}

/// `Window::epoch_open_for` tracks the open access epochs whether or not
/// RMASAN is armed: a lock covers its target only, `lock_all` every
/// target, a PSCW access epoch its group, and fence mode everything from
/// the first fence on.
#[test]
fn epoch_open_for_follows_every_epoch_kind() {
    let out = run_collect(SimConfig::default(), 2, |p| {
        let mut win = p.win_allocate(64);
        let mut seen = Vec::new();
        let open = |win: &clampi_rma::Window| [win.epoch_open_for(0), win.epoch_open_for(1)];
        p.barrier();
        if p.rank() == 0 {
            seen.push(open(&win));
            win.lock(p, LockKind::Shared, 1);
            seen.push(open(&win));
            win.unlock(p, 1);
            seen.push(open(&win));
            win.lock_all(p);
            seen.push(open(&win));
            win.unlock_all(p);
            seen.push(open(&win));
            win.start(p, &[1]);
            seen.push(open(&win));
            win.complete(p);
            seen.push(open(&win));
        } else {
            win.post(p, &[0]);
            win.wait(p, &[0]);
        }
        win.fence(p);
        seen.push(open(&win));
        win.fence(p);
        seen
    });
    let none = [false, false];
    let (target1, all) = ([false, true], [true, true]);
    let expect = vec![none, target1, none, all, none, target1, none, all];
    assert_eq!(out[0].1, expect);
    assert_eq!(out[1].1, vec![all], "rank 1 after its first fence");
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
    fn try_iget_rejects_an_overflowing_count() {
        on_own_window(|p, win, buf| {
            let _ = win.try_iget(p, buf, 0, 0, &huge(), 2);
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
