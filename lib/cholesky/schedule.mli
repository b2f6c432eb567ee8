(** Timing-mode execution: the same factorization as {!Ft}, issued as
    cost-modelled operations to the {!Hetsim.Engine} instead of being
    computed on data.

    This is what lets the benches reproduce the paper's experiments at
    the paper's sizes (5120…30720): the schedule — which kernels run
    where, what depends on what, what overlaps what — is generated for
    any [n] without allocating an n×n matrix. Its logical
    {!Trace_op} trace is asserted equal to the numeric driver's in the
    test suite, so the virtual clock measures the same algorithm the
    numeric mode validates.

    Modelling decisions (kept deliberately coarse; each is one engine
    operation per kernel *class* per iteration so paper-scale runs stay
    cheap):

    - Compute: SYRK/GEMM/TRSM are single GPU kernels with MAGMA's exact
      shapes; POTF2 runs on the CPU between the two diagonal-block PCIe
      transfers and overlaps the GPU's GEMM, as in Algorithm 1.
    - Verification: each verify point is one concurrent-batch of
      per-tile BLAS-2 recalculation kernels ({!Hetsim.Engine.submit_batch}
      with the configured stream count — Optimization 1), a dependency
      of the consuming kernel (pre-read) or serialized after the
      producing kernel (post-update).
    - Checksum updating: aggregated per op class per iteration;
      placement per Optimization 2 — inline on the GPU main engine
      (baseline), on the GPU spare channel, or on the CPU with the
      paper's §VI transfer volumes (initial checksum download, per-
      iteration LC-panel download, per-verification checksum upload).
    - Faults: a correctable injection costs (negligibly) nothing; an
      injection the scheme does not correct forces one full re-run —
      the paper's recovery accounting in Tables VII/VIII, where both
      scheme-detected recomputation and externally-detected silent
      corruption are charged as a second pass.

    The verification batch, the update routing, the balancer's cut and
    the rerun charge are {!Sched_core}'s, shared with the LU and QR
    schedules. *)

type result = {
  makespan : float;  (** virtual seconds, including any recovery pass *)
  gflops : float;  (** (n³/3) / makespan / 1e9 *)
  reruns : int;  (** recovery passes appended (0 or 1 per plan) *)
  trace : Trace_op.t list;  (** logical trace of the last pass *)
  engine : Hetsim.Engine.t;  (** for phase decomposition and traces *)
  placement : Config.placement;  (** resolved, never [Auto] *)
  resilience : Hetsim.Resilient.stats;
      (** retry/quarantine/degradation accounting; all-zero on
          reliable machines *)
  degraded : bool;
      (** true iff the GPU was quarantined or lost and the run
          finished on the CPU *)
}

val run :
  ?plan:Fault.t ->
  ?d:int ->
  ?policy:Hetsim.Resilient.policy ->
  ?fault_seed:int ->
  ?obs:Obs.t ->
  Config.t ->
  n:int ->
  result
(** [run ~plan cfg ~n] simulates the factorization of an n×n matrix.
    [~d] is the checksum row count (default 2). [obs] is
    handed to the {!Hetsim.Resilient} driver, which emits one
    ["resilient.*"] counter per scheduling-level resilience event
    (retries, hangs, quarantines, …) into it.

    Every operation is issued through a {!Hetsim.Resilient} driver
    ([?policy], default {!Hetsim.Resilient.default_policy}) over an
    engine seeded with [fault_seed] (default 0). On machines whose
    devices are {!Hetsim.Device.reliable} — every preset — this is an
    exact pass-through; with a non-trivial reliability profile
    (see {!Hetsim.Machine.with_reliability}) kernels fault, hang, and
    drop out, and the driver retries/quarantines/degrades, all
    deterministically in [fault_seed]. A corrupted transfer counts as
    an In_storage fault for the rerun accounting: it forces a rerun
    unless the scheme corrects storage errors.
    @raise Hetsim.Resilient.Gave_up if the CPU fallback is exhausted.
    @raise Invalid_argument if [n] is not a positive multiple of the
    block size. *)

val uncorrected : Abft.Scheme.t -> Fault.t -> Fault.t
(** The injections of a plan that the scheme does {e not} correct in
    time (each forces recovery): computing errors survive [No_ft] and
    [Offline] (and POTF2-output errors survive everything — the
    checksum update itself consumes the corrupted factor); storage
    errors survive everything but [Enhanced]. *)
