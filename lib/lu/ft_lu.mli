(** Fault-tolerant blocked LU decomposition (extension beyond the
    paper).

    The paper's group applied online ABFT to LU and QR in companion
    work (FT-ScaLAPACK, HPDC'14; Davies & Chen, HPDC'13); this module
    carries the *Enhanced* pre-read scheme over to LU on the same
    substrate. LU is two-sided, so every trailing tile maintains both
    column and row checksums ({!Duochk}); the L panel keeps column
    checksums (errors located by row), the U panel row checksums
    (located by column). Pivoting is omitted — row swaps would break
    the per-tile checksum relationship — so inputs must be diagonally
    dominant ({!Matrix.Lapack.diag_dominant}); a vanishing pivot
    fail-stops and triggers recovery, exactly like lost positive
    definiteness in the Cholesky driver.

    Numeric mode only: the timing story (schedules, optimizations) is
    identical in structure to Cholesky's and is not duplicated here. *)

open Matrix

type outcome = Success | Silent_corruption | Gave_up of string

type stats = {
  verifications : int;
  corrections : int;
  uncorrectable_events : int;
  fail_stops : int;
  restarts : int;
}

type report = {
  l : Mat.t;  (** unit-lower factor *)
  u : Mat.t;  (** upper factor *)
  outcome : outcome;
  residual : float;  (** ‖L·U − A‖_F / ‖A‖_F *)
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
(** [factor a] decomposes square [a] (unmodified) with per-tile dual
    checksums. Defaults: [Enhanced k=1], block 16 (or the order if
    smaller), {!Abft.Verify.default_tol}, 3 restarts. The column
    checksum chains ride the tile GEMM/TRSM
    ({!Duochk.fuse_col}/{!Duochk.solve_col}) and verification is the
    carried-vs-fresh compare; the row side and GETF2 rules are separate
    passes. Supported schemes: [No_ft], [Online] (post-update
    verification), [Enhanced] (pre-read, K-gated trailing verification;
    panel and diagonal inputs always verified, mirroring the SYRK rule
    of the paper's Optimization 3), [Offline] (detect-only final
    verification).

    Fault windows map as: [Potf2 ↦ GETF2] (diagonal tile),
    [Trsm ↦ either panel solve] (disambiguated by the target tile's
    coordinates), [Gemm ↦ trailing update], [In_storage] as in
    Cholesky.
    @raise Invalid_argument if [a] is not square, [block < 1], or its
    order is not a positive multiple of the block size. *)

val residual_threshold : float
val pp_outcome : Format.formatter -> outcome -> unit
val pp_report : Format.formatter -> report -> unit
