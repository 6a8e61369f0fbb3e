//! Expansion of declarative kernel descriptors into per-warp instruction
//! streams.
//!
//! Storing a full trace for every warp of a million-block grid is exactly
//! the scalability wall the paper describes for trace-driven simulation, so
//! the program is stored once, in compressed loop form, and each warp walks
//! it with a tiny [`WarpCursor`].

use pka_gpu::{InstClass, KernelDescriptor};

/// One loop segment: a body of instructions executed `iterations` times.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Segment {
    body: Vec<InstClass>,
    iterations: u32,
}

/// A compressed per-warp dynamic instruction stream.
///
/// Derived deterministically from a [`KernelDescriptor`]: instruction
/// counts are folded into a steady-state loop body (one segment per kernel
/// phase), so every warp executes `instructions_per_thread` instructions
/// with the descriptor's class mix, while storage stays `O(body length)`.
///
/// # Examples
///
/// ```
/// use pka_gpu::KernelDescriptor;
/// use pka_sim::WarpProgram;
///
/// let k = KernelDescriptor::builder("k")
///     .fp32_per_thread(64)
///     .global_loads_per_thread(16)
///     .build()?;
/// let program = WarpProgram::from_descriptor(&k);
/// assert_eq!(program.len(), k.instructions_per_thread());
/// # Ok::<(), pka_gpu::GpuError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpProgram {
    segments: Vec<Segment>,
    total: u64,
}

/// Target steady-state loop body length, instructions.
const TARGET_BODY_LEN: u32 = 24;

impl WarpProgram {
    /// Builds the program for one warp of `kernel`.
    pub fn from_descriptor(kernel: &KernelDescriptor) -> Self {
        let per_thread = kernel.instructions_per_thread();
        // How many loop iterations the whole kernel runs.
        let iterations_total = (per_thread / TARGET_BODY_LEN as u64).clamp(1, u32::MAX as u64) as u32;

        let mut segments = Vec::new();
        let mut remaining: Vec<(InstClass, u64)> = InstClass::ALL
            .iter()
            .map(|&c| (c, kernel.count(c) as u64))
            .collect();

        // Distribute iterations across phases; memory-heavier phases get the
        // same instruction budget but a mix skewed by `mem_scale`.
        let phases = kernel.phases();
        let mut iters_left = iterations_total;
        for (pi, phase) in phases.iter().enumerate() {
            let iters = if pi + 1 == phases.len() {
                iters_left
            } else {
                ((iterations_total as f64 * phase.fraction).round() as u32).min(iters_left)
            };
            iters_left -= iters;
            if iters == 0 {
                continue;
            }
            // Build this phase's body: per class, the share of the remaining
            // count proportional to iterations, skewed for memory classes.
            let mut body = Vec::with_capacity(TARGET_BODY_LEN as usize);
            for (class, left) in remaining.iter_mut() {
                if *left == 0 {
                    continue;
                }
                let share = (*left as f64 * iters as f64 / (iters as f64 + iters_left as f64))
                    .round() as u64;
                let share = share.min(*left);
                let skew = if class.is_global_memory() {
                    phase.mem_scale
                } else {
                    phase.compute_scale
                };
                // Per-iteration count for this class in this phase.
                let mut per_iter = ((share as f64 / iters as f64) * skew).round() as u64;
                if share > 0 && per_iter == 0 {
                    per_iter = 1;
                }
                let per_iter = per_iter.min(share.max(1)).min(*left / iters as u64 + 1);
                for _ in 0..per_iter {
                    body.push(*class);
                }
                *left = left.saturating_sub(per_iter * iters as u64);
            }
            if body.is_empty() {
                body.push(InstClass::Int);
            }
            interleave(&mut body);
            segments.push(Segment {
                body,
                iterations: iters,
            });
        }

        // Epilogue: whatever rounding left over, executed once.
        let mut epilogue: Vec<InstClass> = Vec::new();
        for (class, left) in remaining {
            for _ in 0..left {
                epilogue.push(class);
            }
        }
        // Fix up the total so the trace retires exactly
        // `instructions_per_thread` instructions.
        let so_far: u64 = segments
            .iter()
            .map(|s| s.body.len() as u64 * s.iterations as u64)
            .sum::<u64>()
            + epilogue.len() as u64;
        match so_far.cmp(&per_thread) {
            std::cmp::Ordering::Less => {
                for _ in 0..(per_thread - so_far) {
                    epilogue.push(InstClass::Int);
                }
            }
            std::cmp::Ordering::Greater => {
                let excess = (so_far - per_thread) as usize;
                if excess <= epilogue.len() {
                    epilogue.truncate(epilogue.len() - excess);
                } else {
                    // Shave iterations off the last loop segment.
                    let mut excess = excess as u64 - epilogue.len() as u64;
                    epilogue.clear();
                    while excess > 0 {
                        let n_segments = segments.len();
                        let seg = segments.last_mut().expect("at least one segment");
                        let body_len = seg.body.len() as u64;
                        let drop_iters = (excess / body_len).min(seg.iterations as u64 - 1);
                        seg.iterations -= drop_iters as u32;
                        excess -= drop_iters * body_len;
                        if excess == 0 {
                            break;
                        }
                        if excess >= body_len && seg.iterations == 1 && n_segments > 1 {
                            excess -= body_len;
                            segments.pop();
                        } else {
                            // Partial body remainder: move to epilogue. A
                            // segment left with no iterations goes, or no
                            // cursor could ever walk past it.
                            seg.iterations -= 1;
                            let keep = body_len - excess;
                            epilogue = seg.body[..keep as usize].to_vec();
                            if seg.iterations == 0 {
                                segments.pop();
                            }
                            excess = 0;
                        }
                    }
                }
            }
            std::cmp::Ordering::Equal => {}
        }
        if !epilogue.is_empty() {
            interleave(&mut epilogue);
            segments.push(Segment {
                body: epilogue,
                iterations: 1,
            });
        }

        let total = segments
            .iter()
            .map(|s| s.body.len() as u64 * s.iterations as u64)
            .sum();
        WarpProgram { segments, total }
    }

    /// Total dynamic instructions one warp executes.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Returns `true` for a program with no instructions (never produced
    /// from a valid descriptor).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Starts a cursor at the first instruction.
    pub fn cursor(&self) -> WarpCursor {
        WarpCursor {
            segment: 0,
            iteration: 0,
            pc: 0,
            executed: 0,
        }
    }

    /// Fetches the instruction at a cursor, or `None` past the end.
    pub fn fetch(&self, cursor: &WarpCursor) -> Option<InstClass> {
        self.segments
            .get(cursor.segment)
            .map(|s| s.body[cursor.pc])
    }

    /// Advances a cursor past the instruction it points at.
    pub fn advance(&self, cursor: &mut WarpCursor) {
        let seg = &self.segments[cursor.segment];
        cursor.executed += 1;
        cursor.pc += 1;
        if cursor.pc == seg.body.len() {
            cursor.pc = 0;
            cursor.iteration += 1;
            if cursor.iteration == seg.iterations {
                cursor.iteration = 0;
                cursor.segment += 1;
            }
        }
    }
}

/// Spreads identical instruction classes apart so memory operations are not
/// all back-to-back (round-robin interleave by class).
fn interleave(body: &mut [InstClass]) {
    body.sort_by_key(|c| *c as usize);
    let n = body.len();
    let mut out = Vec::with_capacity(n);
    let half = n.div_ceil(2);
    for i in 0..half {
        out.push(body[i]);
        if half + i < n {
            out.push(body[half + i]);
        }
    }
    body.copy_from_slice(&out);
}

/// A warp's position within a [`WarpProgram`] — 16 bytes per warp, however
/// long the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarpCursor {
    segment: usize,
    iteration: u32,
    pc: usize,
    executed: u64,
}

impl WarpCursor {
    /// Instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_gpu::KernelPhase;
    use proptest::prelude::*;

    fn drain(program: &WarpProgram) -> Vec<InstClass> {
        let mut out = Vec::new();
        let mut cur = program.cursor();
        while let Some(inst) = program.fetch(&cur) {
            out.push(inst);
            program.advance(&mut cur);
        }
        out
    }

    fn kernel(fp32: u32, loads: u32) -> KernelDescriptor {
        KernelDescriptor::builder("k")
            .fp32_per_thread(fp32)
            .global_loads_per_thread(loads)
            .build()
            .unwrap()
    }

    #[test]
    fn trace_length_matches_descriptor_exactly() {
        for (fp, ld) in [(1, 0), (10, 3), (100, 17), (5000, 421), (7, 7)] {
            let k = kernel(fp, ld);
            let p = WarpProgram::from_descriptor(&k);
            assert_eq!(p.len(), k.instructions_per_thread(), "fp={fp} ld={ld}");
            assert_eq!(drain(&p).len() as u64, p.len());
        }
    }

    #[test]
    fn class_counts_match_descriptor() {
        let k = kernel(97, 13);
        let p = WarpProgram::from_descriptor(&k);
        let insts = drain(&p);
        let count = |c: InstClass| insts.iter().filter(|&&x| x == c).count() as u32;
        // Loop-fitting may substitute filler Int for rounding remainders, but
        // memory operations must be preserved within a small tolerance and
        // totals must be exact.
        assert_eq!(insts.len() as u64, k.instructions_per_thread());
        let ld = count(InstClass::LdGlobal);
        assert!((ld as i64 - 13).abs() <= 2, "ld={ld}");
    }

    #[test]
    fn memory_ops_are_interleaved_not_clumped() {
        let k = kernel(64, 16);
        let p = WarpProgram::from_descriptor(&k);
        let insts = drain(&p);
        // No run of 8 consecutive memory instructions in a 4:1 mix.
        let mut run = 0;
        for i in insts {
            if i.is_global_memory() {
                run += 1;
                assert!(run < 8, "memory ops clumped");
            } else {
                run = 0;
            }
        }
    }

    #[test]
    fn phases_shift_memory_density() {
        let k = KernelDescriptor::builder("phased")
            .fp32_per_thread(2000)
            .global_loads_per_thread(200)
            .phases(vec![
                KernelPhase {
                    fraction: 0.5,
                    mem_scale: 2.0,
                    compute_scale: 0.6,
                },
                KernelPhase {
                    fraction: 0.5,
                    mem_scale: 0.3,
                    compute_scale: 1.4,
                },
            ])
            .build()
            .unwrap();
        let p = WarpProgram::from_descriptor(&k);
        let insts = drain(&p);
        assert_eq!(insts.len() as u64, k.instructions_per_thread());
        let half = insts.len() / 2;
        let mem_first = insts[..half]
            .iter()
            .filter(|c| c.is_global_memory())
            .count();
        let mem_second = insts[half..]
            .iter()
            .filter(|c| c.is_global_memory())
            .count();
        assert!(
            mem_first > mem_second * 2,
            "first {mem_first} vs second {mem_second}"
        );
    }

    #[test]
    fn tiny_kernel_single_instruction() {
        let k = KernelDescriptor::builder("one")
            .int_per_thread(1)
            .branches_per_thread(0)
            .build()
            .unwrap();
        let p = WarpProgram::from_descriptor(&k);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
    }

    /// The three phases of an irregular (BFS-like) kernel.
    fn three_phases() -> Vec<KernelPhase> {
        vec![
            KernelPhase {
                fraction: 0.25,
                mem_scale: 1.8,
                compute_scale: 0.6,
            },
            KernelPhase {
                fraction: 0.5,
                mem_scale: 1.0,
                compute_scale: 1.0,
            },
            KernelPhase {
                fraction: 0.25,
                mem_scale: 0.6,
                compute_scale: 1.3,
            },
        ]
    }

    /// Walks `program` for at most `limit` instructions; a walk that hits
    /// the limit never ended.
    fn walk(program: &WarpProgram, limit: u64) -> u64 {
        let mut cur = program.cursor();
        let mut n = 0;
        while n < limit && program.fetch(&cur).is_some() {
            program.advance(&mut cur);
            n += 1;
        }
        n
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Walking any multi-phase program retires exactly `len()`
        /// instructions, and no segment is empty: fitting the phases' loop
        /// counts to the instruction total can shave a segment down to
        /// zero iterations, and no cursor walks past such a segment.
        #[test]
        fn multi_phase_walks_retire_exactly_len(
            counts in (0u32..40, 0u32..8, 0u32..200, 0u32..12, 0u32..6, 0u32..6),
            phased in 0u32..2,
        ) {
            let (int, branches, fp32, loads, stores, shared) = counts;
            let phases = if phased == 0 {
                three_phases()
            } else {
                three_phases()[..2].to_vec()
            };
            let built = KernelDescriptor::builder("walk")
                .int_per_thread(int)
                .branches_per_thread(branches)
                .fp32_per_thread(fp32)
                .global_loads_per_thread(loads)
                .global_stores_per_thread(stores)
                .shared_loads_per_thread(shared)
                .phases(phases)
                .build();
            // A kernel that executes nothing is rejected at build time.
            let Ok(k) = built else { return Ok(()); };
            let p = WarpProgram::from_descriptor(&k);
            prop_assert_eq!(p.len(), k.instructions_per_thread());
            prop_assert!(p.segments.iter().all(|s| s.iterations >= 1));
            prop_assert_eq!(walk(&p, 10 * p.len() + 10), p.len());
        }
    }

    #[test]
    fn cursor_tracks_executed() {
        let k = kernel(20, 4);
        let p = WarpProgram::from_descriptor(&k);
        let mut cur = p.cursor();
        for expected in 0..p.len() {
            assert_eq!(cur.executed(), expected);
            assert!(p.fetch(&cur).is_some());
            p.advance(&mut cur);
        }
        assert!(p.fetch(&cur).is_none());
    }
}
