//! The dynamic μ-kernel decomposition of the BVH path tracer.
//!
//! All four loops of [`crate::pt_traditional`] are removed; each
//! iteration becomes one spawned thread executing one of four
//! μ-kernels:
//!
//! * `main` — launch kernel: loads the ray, seeds the RNG, initializes
//!   the path record, builds the 48-byte state record, spawns `p_node`;
//! * `p_node` — one BVH node visit (slab test): spawns itself after
//!   descending into an inner node, `p_isect` at a non-empty leaf,
//!   `p_pop` on a box miss or empty leaf;
//! * `p_isect` — one Wald ray-triangle test; spawns itself while leaf
//!   records remain, else `p_pop`;
//! * `p_pop` — stack pop (spawns `p_node` to continue the traversal)
//!   or, with the stack empty, the **bounce step**: account the hit,
//!   sample a new diffuse direction, and spawn `p_node` to re-traverse
//!   from the root — or write the result and exit without spawning,
//!   ending the lineage.
//!
//! The bounce-inside-`p_pop` shape keeps the spawn LUT at three targets
//! (fits `DmkConfig::paper()`'s four entries) while making lineages
//! *deeper* than the kd tracer's: a path's spawn chain re-enters the
//! whole traversal once per bounce.
//!
//! ## 48-byte state record (12 words)
//!
//! | word | contents |
//! |------|----------|
//! | 0–2  | ray origin |
//! | 3–5  | ray direction |
//! | 6/7  | best hit t / Wald slot id |
//! | 8    | current node, or `(remaining << 24) \| slot` inside a leaf |
//! | 9    | `(ray id << 8) \| stack pointer` |
//! | 10   | current segment tmin |
//! | 11   | xorshift RNG state |
//!
//! Register conventions follow `crate::pt_common`; throughput,
//! radiance and the segment count live in the per-ray path record in
//! global memory (only the bounce step touches them).

use crate::pt_common::{emit_bounce_sample, emit_hit_accounting, emit_seed, emit_slab_test};
use crate::tri_test::{emit_tri_test, TriTestRegs};
use crate::{PT_MAX_BOUNCES, PT_TFAR, PT_TMIN};
use simt_isa::{assemble_named, Program};

/// Names of the spawnable μ-kernels, in ascending PC order.
pub const PT_UKERNEL_NAMES: [&str; 3] = ["p_node", "p_isect", "p_pop"];

/// Assembles the μ-kernel path-tracing program.
///
/// # Panics
///
/// Panics only if the embedded assembly fails to assemble (a build-time
/// invariant covered by tests).
pub fn program() -> Program {
    assemble_named("pt-ukernel", &source()).expect("pt ukernel program assembles")
}

/// Shared state-restore prelude (paper Fig. 6, as in the kd μ-kernels).
fn restore() -> &'static str {
    r#"
    mov.u32 r0, 0
    mov.u32 r2, %spawnmem
    ld.spawn.u32 r2, [r2+0]           ; state pointer
    ld.spawn.v4 r4, [r2+0]
    ld.spawn.v4 r8, [r2+16]
    ld.spawn.v4 r12, [r2+32]
"#
}

/// Shared state-save epilogue; `target` is the μ-kernel to spawn.
fn save_and_spawn(target: &str) -> String {
    format!(
        r#"
    st.spawn.v4 [r2+0], r4
    st.spawn.v4 [r2+16], r8
    st.spawn.v4 [r2+32], r12
    spawn ${target}, r2
    exit
"#
    )
}

/// The program's assembly source (exposed for inspection/disassembly).
pub fn source() -> String {
    let tri = emit_tri_test(
        &TriTestRegs {
            ox: 4,
            oy: 5,
            oz: 6,
            dx: 7,
            dy: 8,
            dz: 9,
            best_t: 10,
            best_id: 11,
            tri_ref: 29,
            wald_addr: 3,
            w: 20,
            t: 24,
            hu: 25,
            hv: 26,
            x: 27,
            y: 28,
        },
        "i_next",
    );
    let restore = restore();
    let save_node = save_and_spawn("p_node");
    let save_isect = save_and_spawn("p_isect");
    let save_pop = save_and_spawn("p_pop");
    format!(
        r#"
.kernel main
.kernel p_node
.kernel p_isect
.kernel p_pop
.global 312          ; per-ray stack (256) + ray (32) + result (8) + path (16)
.const 28
.spawnstate 48

; ============================ launch kernel ============================
main:
    mov.u32 r0, 0
    mov.u32 r18, %tid
    ld.const.u32 r3, [r0+24]          ; number of rays
    setp.ge.u32 p0, r18, r3
    @p0 exit
    ld.const.u32 r3, [r0+8]           ; ray base
    mad.lo.s32 r3, r18, 32, r3
    ld.global.v4 r4, [r3+0]           ; ox oy oz tmin
    ld.global.v4 r8, [r3+16]          ; dx dy dz tmax
    ; shuffle into the state layout
    mov.b32 r14, r7                   ; segment tmin = ray tmin
    mov.b32 r7, r8                    ; dx
    mov.b32 r8, r9                    ; dy
    mov.b32 r9, r10                   ; dz
    mov.b32 r10, r11                  ; best_t = ray tmax
    mov.s32 r11, -1                   ; best_id = miss
    mov.u32 r12, 0                    ; node = root
    shl.b32 r13, r18, 8               ; (ray id << 8) | sp=0
{seed}
    ; path record = {{throughput 1.0, radiance 0.0, segments 0, pad}}
    ld.const.u32 r3, [r0+20]          ; path base
    mad.lo.s32 r3, r18, 16, r3
    mov.u32 r20, 0x{one:08x}
    mov.u32 r21, 0
    mov.u32 r22, 0
    mov.u32 r23, 0
    st.global.v4 [r3+0], r20
    mov.u32 r2, %spawnmem             ; launch threads: state record direct
{save_node}

; ========================== one BVH node visit =========================
p_node:
{restore}
    ld.const.u32 r16, [r0+0]          ; node base
    mad.lo.s32 r3, r12, 32, r16
    ld.global.v4 r16, [r3+0]          ; min.x min.y min.z meta0
    ld.global.v4 r20, [r3+16]         ; max.x max.y max.z meta1
    mov.b32 r24, r14                  ; tnear = segment tmin
    mov.b32 r25, r10                  ; tfar = best_t
{slab}
    setp.le.f32 p2, r24, r25
    @!p2 bra n_pop                    ; box missed (or NaN)
    shr.u32 r26, r19, 31
    setp.ne.s32 p2, r26, 0
    @p2 bra n_leaf
    ; inner: push the right child on the per-ray global stack
    shr.u32 r28, r13, 8               ; ray id
    and.b32 r29, r13, 255             ; sp
    ; entry address = base + (sp*nrays + rayid)*4 (ray-interleaved)
    ld.const.u32 r3, [r0+24]
    mul.lo.s32 r3, r3, r29
    add.s32 r3, r3, r28
    shl.b32 r3, r3, 2
    ld.const.u32 r26, [r0+16]         ; stack base
    add.s32 r3, r3, r26
    st.global.u32 [r3+0], r23
    add.s32 r29, r29, 1
    shl.b32 r13, r28, 8
    or.b32 r13, r13, r29              ; repack
    mov.b32 r12, r19                  ; descend left
{save_node_again}
n_leaf:
    setp.eq.s32 p2, r23, 0
    @p2 bra n_pop                     ; empty leaf
    and.b32 r26, r19, 0x7fffffff      ; first slot
    shl.b32 r12, r23, 24              ; (count << 24) | slot
    or.b32 r12, r12, r26
{save_isect}
n_pop:
{save_pop}

; ======================== one ray-triangle test ========================
p_isect:
{restore}
    and.b32 r17, r12, 0xffffff        ; slot cursor
    shr.u32 r30, r12, 24              ; remaining
    ld.const.u32 r16, [r0+4]          ; Wald base
    mad.lo.s32 r3, r17, 48, r16
    mov.b32 r29, r17                  ; slot doubles as triangle id
{tri}
i_next:
    sub.s32 r30, r30, 1
    setp.le.s32 p2, r30, 0
    @p2 bra i_done
    add.s32 r17, r17, 1
    shl.b32 r12, r30, 24
    or.b32 r12, r12, r17
{save_isect_again}
i_done:
{save_pop_again}

; ================== stack pop / bounce / lineage end ==================
p_pop:
{restore}
    and.b32 r19, r13, 255             ; sp
    setp.eq.s32 p2, r19, 0
    @p2 bra p_bounce
    shr.u32 r18, r13, 8               ; ray id
    sub.s32 r19, r19, 1
    ld.const.u32 r3, [r0+24]
    mul.lo.s32 r3, r3, r19
    add.s32 r3, r3, r18
    shl.b32 r3, r3, 2
    ld.const.u32 r16, [r0+16]
    add.s32 r3, r3, r16
    ld.global.u32 r12, [r3+0]         ; node
    shl.b32 r13, r18, 8
    or.b32 r13, r13, r19
{save_node_pop}
p_bounce:                             ; traversal done for this segment
    shr.u32 r18, r13, 8               ; ray id
    ld.const.u32 r3, [r0+20]          ; path base
    mad.lo.s32 r3, r18, 16, r3
    ld.global.v4 r20, [r3+0]          ; thr rad segments pad
    setp.eq.s32 p0, r11, -1
    @p0 bra p_escape
{hit}
    add.s32 r22, r22, 1
    setp.ge.s32 p0, r22, {max_bounces}
    @p0 bra p_finish
{sample}
    ; reset the traversal for the next segment (sp is already 0)
    mov.u32 r10, 0x{tfar:08x}         ; best_t = far sentinel
    mov.s32 r11, -1
    mov.u32 r12, 0
    mov.u32 r14, 0x{tmin:08x}
    st.global.v4 [r3+0], r20          ; bank the path record
{save_node_bounce}
p_escape:
    add.f32 r21, r21, r20             ; radiance += throughput (sky = 1)
    add.s32 r22, r22, 1
p_finish:
    ld.const.u32 r3, [r0+12]          ; result base
    mad.lo.s32 r3, r18, 8, r3
    st.global.u32 [r3+0], r21
    st.global.u32 [r3+4], r22
    exit                               ; no spawn: the path's lineage ends
"#,
        seed = emit_seed(18),
        slab = emit_slab_test(),
        tri = tri,
        hit = emit_hit_accounting(20, 21),
        sample = emit_bounce_sample(),
        restore = restore,
        save_node = save_node,
        save_node_again = save_node,
        save_node_pop = save_node,
        save_node_bounce = save_node,
        save_isect = save_isect,
        save_isect_again = save_isect,
        save_pop = save_pop,
        save_pop_again = save_pop,
        one = 1.0f32.to_bits(),
        tfar = PT_TFAR.to_bits(),
        tmin = PT_TMIN.to_bits(),
        max_bounces = PT_MAX_BOUNCES,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_with_four_entry_points() {
        let p = program();
        let names: Vec<&str> = p.entry_points().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["main", "p_node", "p_isect", "p_pop"]);
    }

    #[test]
    fn spawn_targets_fit_a_paper_lut() {
        // Three targets — within DmkConfig::paper()'s four LUT entries.
        let p = program();
        let targets = p.spawn_targets();
        let mut expected: Vec<usize> = PT_UKERNEL_NAMES
            .iter()
            .map(|n| p.entry(n).unwrap().pc)
            .collect();
        expected.sort_unstable();
        assert_eq!(targets, expected);
        assert!(targets.len() <= 4);
    }

    #[test]
    fn resources_match_paper_shape() {
        let p = program();
        let r = p.resource_usage();
        assert_eq!(r.spawn_state_bytes, 48, "48-byte state record");
        assert!(r.registers <= 40, "registers {}", r.registers);
    }

    #[test]
    fn no_loop_back_edges_remain() {
        let p = program();
        for (pc, i) in p.instrs().iter().enumerate() {
            if let simt_isa::Instr::Bra { target } = i.op {
                assert!(target > pc, "backward branch at pc {pc} -> {target}");
            }
        }
    }

    #[test]
    fn every_ukernel_saves_state_with_three_v4_stores() {
        let p = program();
        let v4_spawn_stores = p
            .instrs()
            .iter()
            .filter(|i| {
                matches!(
                    i.op,
                    simt_isa::Instr::St {
                        space: simt_isa::Space::Spawn,
                        width: simt_isa::Width::V4,
                        ..
                    }
                )
            })
            .count();
        // 8 save sites (main, node descend/miss/leaf, isect next/done,
        // pop continue/bounce) × 3 stores.
        assert_eq!(v4_spawn_stores, 8 * 3);
    }

    #[test]
    fn reconvergence_analysis_succeeds() {
        let p = program();
        let _ = simt_isa::ReconvergenceTable::build(&p);
    }
}
