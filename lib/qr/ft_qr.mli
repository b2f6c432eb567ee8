(** Fault-tolerant blocked QR by modified Gram–Schmidt (extension).

    The third routine of the FT-ScaLAPACK family the paper's related
    work covers (Cholesky, LU, QR). Householder QR entangles checksums
    through the reflectors, so this driver uses blocked *modified
    Gram–Schmidt*: every operation on the panels is linear in the
    panel data (block projections [R_kj = Q_kᵀ A_j],
    [A_j ← A_j − Q_k R_kj], column scalings), so the per-panel column
    checksums of {!Panelchk} follow each step with exact update rules —
    precisely the property ABFT needs.

    The driver is left-looking: panel [j] receives the projections of
    {e all} previous Q panels in its own iteration, so factored Q
    panels are re-read every later iteration and the Enhanced pre-read
    verification protects them against storage errors — the same
    structural argument as MAGMA's inner-product Cholesky and the
    left-looking FT-LU.

    Protected state: the Q panels (and the in-progress A panels).
    The small R factor (n×n upper) is not checksummed — it is O(n²)
    host-side data, the natural home for conventional ECC; noted as
    future work.

    Fault-window mapping: [Gemm] = the block projection/update of panel
    [j] by panel [k] (target block [(j, k)]); [Potf2] = the in-panel
    MGS factorization of panel [j] (target [(j, j)]); [In_storage]
    flips an element of panel [block_row] at the start of the given
    iteration ([block_col] is ignored).

    A pleasant difference from Cholesky: because MGS transforms panel
    data and checksum {e together}, a computing error in its output is
    an ordinary post-update single error — corrected at the panel's
    next read rather than forcing recomputation the way Cholesky's
    POTF2 (whose Algorithm-2 update consumes the corrupted factor)
    does. *)

open Matrix

type outcome = Success | Silent_corruption | Gave_up of string

type stats = {
  verifications : int;
  corrections : int;
  uncorrectable_events : int;
  fail_stops : int;  (** rank-deficiency detected in the MGS panel step *)
  restarts : int;
}

type report = {
  q : Mat.t;  (** m×n, orthonormal columns *)
  r : Mat.t;  (** n×n upper triangular *)
  outcome : outcome;
  residual : float;  (** ‖Q·R − A‖_F / ‖A‖_F *)
  orthogonality : float;  (** ‖QᵀQ − I‖_F *)
  stats : stats;
  injections_fired : Injector.fired list;
}

val factor :
  ?plan:Fault.t ->
  ?scheme:Abft.Scheme.t ->
  ?block:int ->
  ?tol:float ->
  ?max_restarts:int ->
  Mat.t ->
  report
(** [factor a] for [a] m×n with [m >= n > 0] and full column rank.
    Defaults: Enhanced (k = 1), block 16 (clamped to n), 3 restarts.
    The checksum chains of both replicas ride the block-projection GEMM
    ({!Panelchk.fuse}) and verification is the carried-vs-fresh
    {!Panelchk.compare}; the in-panel MGS checksum updates are scalar
    rules.
    Supported schemes: [No_ft], [Online], [Enhanced] (K gates the
    projection-input verifications; the panel about to be factored is
    always verified), [Offline] (detect-only final check of the Q
    panels).
    @raise Invalid_argument unless [m >= n], [n > 0], [block >= 1] and
    [block] (clamped to [n]) divides [n]. *)

val residual_threshold : float
val pp_outcome : Format.formatter -> outcome -> unit
val pp_report : Format.formatter -> report -> unit
