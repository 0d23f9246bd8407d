//! Property-based tests for the OS substrate.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use proptest::prelude::*;

use refsim_dram::geometry::Geometry;
use refsim_dram::mapping::{AddressMapping, MappingScheme};
use refsim_dram::time::Ps;
use refsim_os::bank_alloc::{BankAwareAllocator, BankVector};
use refsim_os::buddy::{BuddyAllocator, MAX_ORDER};
use refsim_os::partition::{plan, verify_coverage, PartitionInput, PartitionPlan};
use refsim_os::sched::{SchedPolicy, Scheduler};
use refsim_os::task::{Task, TaskId};
use refsim_os::vm::AddressSpace;

/// Largest VPN the page table accepts.
const MAX_VPN: u64 = u32::MAX as u64 - 1;

/// One step of a random page-table script.
#[derive(Debug, Clone)]
enum VmOp {
    /// Map `vaddr`'s page to `frame` unless it is already mapped.
    Map { vaddr: u64, frame: u64 },
    /// Translate `vaddr`, mapped or not.
    Translate { vaddr: u64 },
}

/// Addresses on a few dozen pages, so scripts revisit mapped pages,
/// mixed with pages anywhere in the 32-bit VPN range; any page offset.
fn arb_vaddr() -> impl Strategy<Value = u64> {
    let vpn = prop_oneof![0u64..48, 0u64..=MAX_VPN];
    (vpn, 0u64..4096).prop_map(|(vpn, offset)| vpn * 4096 + offset)
}

fn arb_vm_ops() -> impl Strategy<Value = Vec<VmOp>> {
    // `Map` is listed twice so that scripts grow the table through
    // several doublings.
    prop::collection::vec(
        prop_oneof![
            (arb_vaddr(), any::<u32>()).prop_map(|(vaddr, frame)| VmOp::Map {
                vaddr,
                frame: u64::from(frame),
            }),
            (arb_vaddr(), any::<u32>()).prop_map(|(vaddr, frame)| VmOp::Map {
                vaddr,
                frame: u64::from(frame),
            }),
            arb_vaddr().prop_map(|vaddr| VmOp::Translate { vaddr }),
        ],
        1..300,
    )
}

/// Random alloc/free workload against the buddy allocator, checking the
/// core invariants after every operation.
#[derive(Debug, Clone)]
enum BuddyOp {
    Alloc(u32),
    FreeIdx(usize),
}

fn arb_buddy_ops() -> impl Strategy<Value = Vec<BuddyOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..=MAX_ORDER).prop_map(BuddyOp::Alloc),
            any::<usize>().prop_map(BuddyOp::FreeIdx),
        ],
        1..200,
    )
}

proptest! {
    /// Buddy allocator: allocated blocks never overlap, accounting is
    /// exact, and freeing everything restores full capacity.
    #[test]
    fn buddy_no_overlap_and_full_merge(frames_exp in 6u32..13, ops in arb_buddy_ops()) {
        let frames = 1u64 << frames_exp;
        let mut b = BuddyAllocator::new(frames);
        let mut live: Vec<(u64, u32)> = Vec::new();
        for op in ops {
            match op {
                BuddyOp::Alloc(order) => {
                    if let Ok(start) = b.alloc(order) {
                        // No overlap with any live block.
                        let size = 1u64 << order;
                        for &(s, o) in &live {
                            let sz = 1u64 << o;
                            prop_assert!(
                                start + size <= s || s + sz <= start,
                                "overlap: [{start},{}) vs [{s},{})", start + size, s + sz
                            );
                        }
                        live.push((start, order));
                    }
                }
                BuddyOp::FreeIdx(i) => {
                    if !live.is_empty() {
                        let (s, o) = live.swap_remove(i % live.len());
                        b.free(s, o);
                    }
                }
            }
            let used: u64 = live.iter().map(|&(_, o)| 1u64 << o).sum();
            prop_assert_eq!(b.free_frames(), frames - used);
        }
        for (s, o) in live.drain(..) {
            b.free(s, o);
        }
        prop_assert_eq!(b.free_frames(), frames);
    }

    /// BankVector behaves like a BTreeSet<u32> model.
    #[test]
    fn bank_vector_model(ops in prop::collection::vec((any::<bool>(), 0u32..64), 0..100)) {
        let mut v = BankVector::EMPTY;
        let mut model = BTreeSet::new();
        for (insert, bank) in ops {
            if insert {
                v.insert(bank);
                model.insert(bank);
            } else {
                v.remove(bank);
                model.remove(&bank);
            }
            prop_assert_eq!(v.count() as usize, model.len());
            prop_assert_eq!(v.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        }
        // next_after agrees with the model's cyclic successor.
        for start in 0..64u32 {
            let expect = model
                .iter()
                .copied()
                .map(|b| ((b + 64 - start - 1) % 64, b))
                .min()
                .map(|(_, b)| b);
            prop_assert_eq!(v.next_after(start, 64), expect);
        }
    }

    /// The bank-aware allocator never hands out a frame twice and only
    /// reports `fell_back` when the frame is outside the permitted set.
    #[test]
    fn bank_alloc_unique_and_honest(
        rows_exp in 4u32..8,
        masks in prop::collection::vec(1u64..u64::MAX, 1..4),
        allocs in 1usize..200,
    ) {
        let g = Geometry::ddr3_2rank_8bank(1 << rows_exp);
        let map = AddressMapping::new(g, MappingScheme::RowRankBankColumn);
        let mut alloc = BankAwareAllocator::new(map);
        let total = alloc.total_banks();
        let mut seen = BTreeSet::new();
        let mut last = vec![total - 1; masks.len()];
        for i in 0..allocs {
            let which = i % masks.len();
            let possible = BankVector::from_iter(
                (0..total).filter(|b| masks[which] & (1u64 << b) != 0),
            );
            match alloc.alloc_page(possible, &mut last[which]) {
                Ok(p) => {
                    prop_assert!(seen.insert(p.frame), "frame {} handed out twice", p.frame);
                    prop_assert_eq!(alloc.bank_of(p.frame), p.bank);
                    prop_assert_eq!(p.fell_back, !possible.contains(p.bank));
                }
                Err(_) => prop_assert_eq!(alloc.free_frames(), 0),
            }
        }
    }

    /// Partition isolation under allocation: pages allocated for a task
    /// against its planned soft/hard bank vector never silently leave
    /// the permitted set — `fell_back` is the only escape hatch, and
    /// under hard partitioning within capacity it never triggers, so a
    /// hard-partitioned task's frames all stay inside its partition.
    #[test]
    fn partition_alloc_never_leaves_permitted_banks(
        rows_exp in 4u32..8,
        hard in any::<bool>(),
        n_tasks in 1u32..9,
        requested in 1usize..128,
    ) {
        let g = Geometry::ddr3_2rank_8bank(1 << rows_exp);
        let map = AddressMapping::new(g, MappingScheme::RowRankBankColumn);
        let mut alloc = BankAwareAllocator::new(map);
        let total = alloc.total_banks();
        let kind = if hard { PartitionPlan::Hard } else { PartitionPlan::Soft };
        let part = plan(kind, PartitionInput {
            total_banks: total,
            banks_per_rank: 8,
            n_cores: 2,
            n_tasks,
        });
        // Stay inside per-partition capacity so hard mode has no
        // legitimate reason to spill: round-robin hands each task at
        // most ceil(requested / n_tasks) <= frames_per_bank pages.
        let frames_per_bank = (alloc.free_frames() / u64::from(total)) as usize;
        let allocs = requested.min(frames_per_bank * n_tasks as usize);
        let mut last = vec![total - 1; n_tasks as usize];
        for i in 0..allocs {
            let task = i % n_tasks as usize;
            let permitted = part.banks[task];
            let p = alloc.alloc_page(permitted, &mut last[task]);
            let p = p.expect("within capacity");
            prop_assert_eq!(
                p.fell_back,
                !permitted.contains(p.bank),
                "fell_back must be the only escape from the partition"
            );
            if hard {
                prop_assert!(
                    permitted.contains(p.bank),
                    "task {} got bank {} outside its hard partition {:?}",
                    task, p.bank, permitted
                );
            }
        }
        prop_assert_eq!(alloc.audit(), None);
    }

    /// Partition plans always produce full per-core group coverage when
    /// the exclusion windows can cover the rank (n·(B−k) ≥ B), for any
    /// core/task combination.
    #[test]
    fn partition_coverage(
        cores in 1u32..5,
        ratio in 2u32..6,
        ranks_exp in 0u32..2,
    ) {
        let banks_per_rank = 8u32;
        let input = PartitionInput {
            total_banks: banks_per_rank << ranks_exp,
            banks_per_rank,
            n_cores: cores,
            n_tasks: cores * ratio,
        };
        let p = plan(PartitionPlan::Soft, input);
        prop_assert_eq!(p.banks.len(), input.n_tasks as usize);
        prop_assert!(
            verify_coverage(&p, input).is_ok(),
            "soft plan must cover: {input:?}"
        );
        // Every task's vector is non-empty and within range.
        for v in &p.banks {
            prop_assert!(!v.is_empty());
            prop_assert!(v.iter().all(|b| b < input.total_banks));
        }
    }

    /// Hard partitions are always pairwise disjoint.
    #[test]
    fn hard_partition_disjoint(cores in 1u32..4, tasks in 1u32..16) {
        let input = PartitionInput {
            total_banks: 16,
            banks_per_rank: 8,
            n_cores: cores,
            n_tasks: tasks,
        };
        let p = plan(PartitionPlan::Hard, input);
        // Within bank capacity (tasks ≤ total banks) hard partitions are
        // pairwise disjoint; beyond it they wrap and may legally overlap.
        for i in 0..p.banks.len() {
            for j in (i + 1)..p.banks.len() {
                let inter = p.banks[i].bits() & p.banks[j].bits();
                prop_assert_eq!(inter, 0, "tasks {}/{} overlap", i, j);
            }
        }
    }

    /// CFS fairness: with equal slices, after k full rounds every task
    /// has identical cpu_time regardless of queue order.
    #[test]
    fn cfs_long_run_fairness(n_tasks in 1u32..8, rounds in 1u32..10) {
        let slice = Ps::from_ms(4);
        let mut s = Scheduler::new(SchedPolicy::Cfs, slice, 1);
        let mut tasks: Vec<Task> = (0..n_tasks)
            .map(|i| Task::new(TaskId(i), format!("t{i}"), 0, BankVector::all(16), 16))
            .collect();
        for t in &mut tasks {
            s.enqueue(t);
        }
        for _ in 0..(rounds * n_tasks) {
            let id = s.pick_next(0, BankVector::EMPTY, &mut tasks).unwrap();
            s.requeue(&mut tasks[id.0 as usize], slice);
        }
        for t in &tasks {
            prop_assert_eq!(t.cpu_time, slice * u64::from(rounds));
        }
    }

    /// Refresh-aware scheduling never picks a task that could be dodged:
    /// if any queued task avoids the bank, the pick avoids the bank.
    #[test]
    fn refresh_aware_pick_is_sound(
        bank in 0u32..16,
        masks in prop::collection::vec(1u64..0xFFFF, 1..8),
    ) {
        let mut s = Scheduler::new(
            SchedPolicy::RefreshAware { eta_thresh: 32, best_effort: true },
            Ps::from_ms(4),
            1,
        );
        let mut tasks: Vec<Task> = masks
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let v = BankVector::from_iter((0..16).filter(|b| m & (1 << b) != 0));
                Task::new(TaskId(i as u32), format!("t{i}"), 0, v, 16)
            })
            .collect();
        for t in &mut tasks {
            s.enqueue(t);
        }
        let someone_avoids = tasks.iter().any(|t| t.avoids_bank(bank));
        let id = s
            .pick_next(0, BankVector::single(bank), &mut tasks)
            .unwrap();
        if someone_avoids {
            prop_assert!(
                tasks[id.0 as usize].avoids_bank(bank),
                "picked {} although an avoiding task was queued",
                id
            );
        }
    }

    /// The page table behaves like a `HashMap<vpn, frame>` model through
    /// maps, translations and growth.
    #[test]
    fn page_table_matches_a_hashmap_model(ops in arb_vm_ops()) {
        let mut mm = AddressSpace::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut faults = 0u64;
        for op in ops {
            match op {
                VmOp::Map { vaddr, frame } => {
                    if let Entry::Vacant(e) = model.entry(vaddr / 4096) {
                        e.insert(frame);
                        mm.map(vaddr, frame);
                        faults += 1;
                    }
                }
                VmOp::Translate { vaddr } => {
                    let want = model.get(&(vaddr / 4096)).map(|f| f * 4096 + vaddr % 4096);
                    prop_assert_eq!(mm.translate(vaddr), want, "vaddr {:#x}", vaddr);
                }
            }
            prop_assert_eq!(mm.resident_pages(), model.len() as u64);
            prop_assert_eq!(mm.faults(), faults);
            let listed: BTreeMap<u64, u64> = mm.mappings().collect();
            prop_assert_eq!(listed.len(), model.len(), "mappings() repeats an entry");
            prop_assert_eq!(listed, model.iter().map(|(&v, &f)| (v, f)).collect::<BTreeMap<_, _>>());
        }
        let sorted: Vec<(u64, u64)> = model.into_iter().collect::<BTreeMap<_, _>>().into_iter().collect();
        let mut pages: Vec<(u64, u64)> = mm.mappings().collect();
        pages.sort_unstable();
        prop_assert_eq!(pages, sorted);
    }
}

/// One all-bank mcf task maps 37,063 pages; its page table must stay
/// within 65,536 slots of 8 bytes (a `HashMap<u64, u64>` of the same
/// count holds about twice that).
#[test]
fn page_table_footprint_for_one_mcf_task() {
    const PAGES: usize = 37_063;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut seen = HashSet::with_capacity(PAGES);
    let mut mm = AddressSpace::new();
    while seen.len() < PAGES {
        // xorshift64 over mcf's 1.74 GB footprint (under 2^19 pages).
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let vpn = state % (1 << 19);
        if seen.insert(vpn) {
            mm.map(vpn * 4096, seen.len() as u64);
        }
    }
    assert_eq!(mm.resident_pages(), PAGES as u64);
    assert!(
        mm.page_table_bytes() <= 65_536 * 8,
        "page table holds {} bytes for {PAGES} pages",
        mm.page_table_bytes()
    );
}
