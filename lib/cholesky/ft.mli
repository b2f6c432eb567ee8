(** The numeric fault-tolerant Cholesky driver.

    Runs the MAGMA-ordered blocked factorization on real data —
    per iteration: SYRK on the diagonal block, GEMM on the trailing
    panel, POTF2 of the diagonal block (the step MAGMA places on the
    CPU), TRSM of the panel — with the configured ABFT scheme woven in:
    checksum encoding up front, the {!Abft.Update} rule after every
    kernel, and verification at the scheme's points (post-update for
    Online, pre-read for Enhanced, end-of-run for Offline).

    Fault injection is physical: the plan's bit flips and wrong values
    are written into the live tiles — or the stored checksum blocks —
    at their scheduled logical points, and detection/correction runs
    the real checksum machinery.

    {b Recovery ladder.} When something goes wrong the driver escalates
    through graduated rungs, cheapest first:

    + {e inline correction} — verification locates and patches the
      element ([stats.corrections]);
    + {e plain-sum reconstruction} — an overwhelmed element (Inf/NaN or
      huge) is rebuilt from the plain-sum checksum row
      ([stats.reconstructions]); checksum-replica repairs
      ([stats.checksum_repairs]) are likewise inline;
    + {e snapshot rollback} — an unrecoverable event restores the last
      verified iteration-boundary snapshot (see {!Checkpoint}) and
      recomputes only the trailing iterations, up to
      [Config.max_rollbacks] times per attempt; snapshots are taken
      every [Config.snapshot_interval] iterations (0 = rung disabled);
    + {e full restart} — recompute from the pristine input
      (the paper's recovery-by-recomputation), up to
      [Config.max_restarts] times;
    + give up, reporting the structured {!Recovery.reason}.

    The counting, restart and give-up rungs are the shared
    {!Recovery.ladder}; this driver adds the snapshot-rollback rung.

    The driver also emits the logical {!Trace_op} trace that the
    timing-mode {!Schedule} generator must reproduce (snapshots and
    rollbacks are numeric-mode-only trace entries and are off by
    default). *)

open Matrix

type outcome = Recovery.outcome =
  | Success
  | Silent_corruption
  | Gave_up of Recovery.reason  (** see {!Recovery.outcome} *)

type stats = Recovery.stats = {
  verifications : int;
  corrections : int;
  reconstructions : int;
  checksum_repairs : int;
  uncorrectable_events : int;
  fail_stops : int;
  rollbacks : int;
  snapshots : int;
  restarts : int;
}
(** See {!Recovery.stats}; here [fail_stops] counts positive-definiteness
    losses in POTF2. *)

type report = {
  factor : Mat.t;  (** lower-triangular result (last attempt's) *)
  outcome : outcome;
  residual : float;
      (** end-of-run check against the pristine input, {!residual_of}:
          the probe estimate of ‖L·Lᵀ − A‖ when it is far under
          {!Recovery.residual_threshold}, else the exact
          ‖L·Lᵀ − A‖_F / max(1, ‖A‖_F) *)
  stats : stats;
  injections_fired : Injector.fired list;
  trace : Trace_op.t list;  (** logical trace of the {e last} attempt *)
}

exception Cancelled of { iteration : int; stats : stats }
(** Raised out of {!factor} when its [cancel] hook returns [true] at an
    iteration boundary. [iteration] is the outer iteration the run was
    about to start; [stats] are the partial whole-run totals at that
    point. The input matrix is untouched and no partial factor is
    returned — cancellation can never publish a half-written result. *)

val factor :
  ?pool:Parallel.Pool.t ->
  ?obs:Obs.t ->
  ?plan:Fault.t ->
  ?final_sweep:bool ->
  ?cancel:(unit -> bool) ->
  Config.t ->
  Mat.t ->
  report
(** [factor ~plan cfg a] factors SPD [a] (not modified). [~final_sweep]
    (default false) adds an end-of-run verification sweep to every
    FT scheme — an extension beyond the paper that lets even
    Online-ABFT catch (and often repair) residual storage errors;
    off by default to stay faithful.

    [cancel] (default [fun () -> false]) is polled cooperatively at the
    top of every outer iteration — including after rollbacks and
    restarts — where no tile write is in flight. When it returns
    [true] the driver raises {!Cancelled} with partial stats, the pool
    slot is freed (the pool's previous obs sink is restored on the way
    out), and the caller sees no torn state. Serving layers use this
    for deadlines and client cancellation; the hook must be cheap and
    thread-safe (typically an [Atomic.get]).

    [pool] (default {!Parallel.Pool.default}, sized by [ABFT_DOMAINS])
    carries the real-core parallelism: row blocks of the trailing GEMM,
    the panel TRSMs, the checksum updates, and the per-tile
    verification sweeps all fan out across it, mirroring the paper's
    N-stream Optimization 1. The factor is bitwise identical for every
    pool size (no work item is ever split, and per-element reduction
    order is fixed), so fault-detection thresholds behave the same
    under any [ABFT_DOMAINS].

    [obs] (default [Obs.null]) receives the run's observability
    stream: one non-nested span per driver-level operation — [init],
    [encode], per-tile [gemm]/[trsm] and per-iteration [syrk]/[potf2]
    (phase [compute]), their [chk-*] counterparts (phase
    [chk-update]), [verify]/[final-verify] (phase [abft]),
    [snapshot]/[rollback] (phase [recovery], state capture/restore
    only), [residual] (phase [check]) — plus ["ft.*"] counters
    mirroring {!stats} at the end. Spans never overlap on a domain, so
    their durations sum to (almost all of) the run's busy time. The
    sink is also attached to [pool] for the duration of the run (its
    previous sink is restored on return). With the default null sink
    every instrumentation point is a single branch and the factor is
    bitwise identical to an uninstrumented run.
    @raise Invalid_argument if [a] is not square, its order is not a
    positive multiple of the block size, or the config is invalid. *)

val residual_of : input:Mat.t -> Mat.t -> float
(** [residual_of ~input l] is {!Recovery.residual} for a finished lower
    factor [l]: the probes apply L·(Lᵀ·V) by two triangular products,
    and only a run the screen cannot clear forms the dense L·Lᵀ. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_report : Format.formatter -> report -> unit
