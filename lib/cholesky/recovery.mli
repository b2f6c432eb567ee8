(** The recovery core shared by every numeric fault-tolerant driver
    ({!Ft}, {!Right_looking}, [Ftlu.Ft_lu], [Ftqr.Ft_qr]).

    Each driver keeps only its per-iteration step and data layout; this
    module owns what they have in common:

    - the structured {!reason} an attempt fails with, and {!outcome};
    - the run's {!stats} counters;
    - the fold of one verification outcome into those counters
      ({!account}, {!detect});
    - the recovery {!ladder}: attempt, optional rollback, restart, give
      up;
    - the end-of-run check of the finished factors ({!residual},
      {!orthogonality}) and the {!classify} of a finished run.

    Every event that makes an attempt unrecoverable in place is one of
    the {!reason} constructors — the ladder dispatches on the
    constructor, not on string prefixes, and the reason survives intact
    into {!outcome} ([Gave_up]) for tests and reports. *)

open Matrix

type reason =
  | Fail_stop of { iteration : int; column : int }
      (** the diagonal-block (or panel) factorization broke down: lost
          positive definiteness in POTF2, a singular GETF2 pivot, rank
          loss in the MGS panel — the classic fail-stop the paper
          recovers from by recomputation *)
  | Uncorrectable_block of { block : int * int; detail : string }
      (** a verification detected an error pattern the scheme cannot
          repair in the given tile *)
  | Final_mismatch of { block : int * int; detail : string }
      (** the end-of-run verification found a block inconsistent
          (Offline-ABFT's detect-only check, or the final sweep) *)

exception Error of reason
(** Raised inside an attempt; caught by {!ladder}. *)

val is_fail_stop : reason -> bool

val describe : reason -> string
(** Human-readable one-liner; [Fail_stop] descriptions begin with
    ["fail-stop:"] to keep log and report text stable. *)

val pp : Format.formatter -> reason -> unit

type outcome =
  | Success  (** factor returned and residual at working precision *)
  | Silent_corruption
      (** the run completed believing it succeeded, but the factor is
          wrong — e.g. Online-ABFT after a storage error (the paper's
          motivating failure) *)
  | Gave_up of reason
      (** every ladder rung exhausted; payload is the last failure *)

type stats = {
  verifications : int;  (** tile verifications performed *)
  corrections : int;  (** elements located and delta-patched (rung 1) *)
  reconstructions : int;
      (** elements rebuilt from the plain-sum row (rung 2) *)
  checksum_repairs : int;
      (** checksum blocks healed after replica disagreement *)
  uncorrectable_events : int;  (** verifications that triggered recovery *)
  fail_stops : int;  (** {!Fail_stop} events *)
  rollbacks : int;  (** snapshot rollbacks taken (rung 3), all attempts *)
  snapshots : int;  (** snapshots captured, all attempts *)
  restarts : int;  (** full restarts (rung 4) *)
}
(** [verifications], [corrections], [reconstructions] and
    [checksum_repairs] cover the final attempt; the other fields are
    whole-run totals. *)

val zero : stats
(** All counters zero. A driver tallies its run in a [stats ref]
    starting here; the ladder maintains every field except
    [snapshots], which belongs to the driver's snapshot rung. *)

val count_fix : stats ref -> Abft.Verify.correction -> unit
(** One applied fix: a [Located] one is a correction, a [Reconstructed]
    one a reconstruction. *)

val account :
  stats ref -> ?final:bool -> block:int * int -> Abft.Verify.outcome -> unit
(** Fold one verification of [block] into the counters: one
    verification, plus its fixes ({!count_fix}) and checksum repair.
    @raise Error [Uncorrectable_block] (or [Final_mismatch] when
    [final], default false) on an uncorrectable outcome. *)

val detect : stats ref -> block:int * int -> bool -> unit
(** A detect-only end-of-run check of [block] (Offline-ABFT): one
    verification.
    @raise Error [Final_mismatch] when the check failed ([false]). *)

val ladder :
  ?rollback:('st -> int option) ->
  stats ref ->
  max_restarts:int ->
  attempt:(unit -> 'st) ->
  run:('st -> from:int -> unit) ->
  'st * reason option
(** The recovery ladder. Each attempt resets the per-attempt counters
    (and sets [restarts] to the attempt's index), builds fresh state
    with [attempt ()] and calls [run st ~from:0]. When [run] raises
    {!Error}, the event is counted ([uncorrectable_events],
    [fail_stops]) and [rollback st] may restore a snapshot and name the
    iteration to rerun from (counted in [rollbacks]); otherwise the
    attempt is discarded and the next one starts, up to [max_restarts]
    restarts. Returns the last attempt's state and, when every rung was
    exhausted, the last reason. The default [rollback] never rolls
    back. *)

val residual_threshold : float
(** Residual above which a completed run is classified
    {!Silent_corruption} ([1e-6]). *)

val residual :
  input:Mat.t -> apply:(Mat.t -> Mat.t) -> product:(unit -> Mat.t) -> float
(** The end-of-run check of finished factors F against [input] = A, in
    two stages.

    - {b Screen}, O(n²): a Freivalds estimate ‖A·V − F(V)‖_F / ‖A·V‖_F
      over three seeded probe columns V (n×3), where [apply v] returns
      F(v) as a fresh matrix — L·(Lᵀ·v), L·(U·v) or Q·(R·v). When the
      estimate is at most [residual_threshold / 1000] it is the result.
    - {b Confirm}, O(n³): otherwise (a NaN estimate included)
      [product ()] builds the dense F and the result is the exact
      ‖F − A‖_F / max(1, ‖A‖_F).

    So a clean run reports the probe estimate, and any run near or
    above {!residual_threshold} reports the exact dense residual:
    {!classify} sees the same class under either check, because no
    estimate under the screen can hide a dense residual above the
    threshold unless the probes under-read it a thousandfold. *)

val orthogonality :
  n:int -> apply:(Mat.t -> Mat.t) -> gram:(unit -> Mat.t) -> float
(** The same screen-then-confirm rule for ‖QᵀQ − I‖_F of a Q with [n]
    columns: the estimate is ‖Qᵀ(Q·V) − V‖_F / ‖V‖_F, with [apply v]
    returning Qᵀ(Q·v); above the screen, [gram ()] builds QᵀQ and the
    result is the exact ‖QᵀQ − I‖_F. *)

val classify : reason option -> residual:float -> outcome
(** [Gave_up] on a failure; otherwise {!Success} iff [residual] is at
    most {!residual_threshold} (a NaN residual is silent corruption). *)

val pp_outcome : Format.formatter -> outcome -> unit

val pp_stats : Format.formatter -> stats -> unit
(** All nine fields on two lines of a vertical box. *)
