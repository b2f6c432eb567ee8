(** Error detection, location and correction (the paper's §IV-C).

    Given a tile and its stored checksum, [verify] recomputes the
    checksum fresh and compares. A discrepancy [δ₁ᵢ] above the rounding
    threshold in column [i] signals an error in that column; with two
    checksum rows, the row index is [δ₂ᵢ/δ₁ᵢ − 1] and the corrected
    value is the stored one minus [δ₁ᵢ]. Up to one error per column is
    corrected; anything else (non-integral locator, out-of-range row,
    residual mismatch after patching, or a single-row checksum) is
    reported uncorrectable and triggers the driver's
    recovery-by-recomputation.

    The stored checksums are {e not} assumed intact: each block keeps
    two replicas (see {!Checksum}), and [verify] cross-checks them
    bitwise before trusting either. A replica disagreement proves
    in-place checksum corruption; the fresh recalculation arbitrates
    which copy to trust, the corrupted copy is repaired by overwriting,
    and only then does ordinary tile locate-and-patch proceed. A
    corrupted checksum block therefore never patches clean tile data —
    the repair is by recalculation, not by chasing the lying copy. *)

open Matrix

type source =
  | Located  (** δ₂/δ₁ (or Prony) location plus delta subtraction *)
  | Reconstructed
      (** plain-sum reconstruction: the element was overwhelmed
          (Inf/NaN or ≥ the anchor magnitude) so its true value was
          rebuilt as [chk₁ − Σ other elements] of its column *)

type correction = {
  row : int;
  col : int;
  wrong : float;  (** value found in the tile *)
  fixed : float;  (** value written back *)
  source : source;  (** how the fixed value was obtained *)
}

type outcome =
  | Clean  (** checksums matched everywhere *)
  | Corrected of correction list
      (** mismatches found, all located and patched, re-verification
          passed *)
  | Checksum_repaired of { cells : int; corrections : correction list }
      (** the two checksum replicas disagreed in [cells] cells; the
          corrupted replica was repaired by recalculation/overwrite.
          [corrections] lists any tile fixes applied after the repair
          (empty when the tile itself was clean — the common case). *)
  | Uncorrectable of string
      (** mismatch found that the scheme cannot repair; the payload
          explains why (for logs and tests) *)

val default_tol : float
(** Relative rounding threshold, [1e-8]: mismatches below
    [tol × scale] (where scale is the largest checksum magnitude, at
    least 1) are attributed to floating-point rounding. *)

val verify : ?pool:Parallel.Pool.t -> ?tol:float -> Checksum.t -> Mat.t -> outcome
(** [verify ~tol chk tile] detects, locates and corrects in-place
    (square tiles or rectangular panels alike).
    With the paper's [d = 2] checksum rows, up to one error per tile
    column is corrected. With [d >= 4] rows (an extension beyond the
    paper), up to {e two} errors per column are corrected: the column's
    checksum discrepancies [δ_r = Σᵢ eᵢ·(rowᵢ+1)^r] are the power sums
    of the error locations weighted by the error magnitudes, so the two
    locations are the roots of the quadratic [w² − s·w + p] recovered
    from four consecutive power sums (classic Prony/BCH decoding), and
    the magnitudes follow by elimination. Non-integral or out-of-range
    roots fall through to [Uncorrectable].

    When the checksum replicas disagree, the self-protection path runs
    first (see the module preamble) and the result is reported as
    {!Checksum_repaired}. A failed repair trial restores both the tile
    and the primary replica before the next trial, so an
    [Uncorrectable] outcome never leaves a speculative mis-patch
    behind from the replica arbitration.
    @raise Invalid_argument on shape mismatch between [chk] and
    [tile]. *)

val max_correctable_per_column : d:int -> int
(** [1] for [d] of 2 or 3, [2] for [d >= 4], [0] for [d = 1] — what
    {!verify} can repair in one column of a tile. *)

val compare :
  ?pool:Parallel.Pool.t ->
  ?tol:float ->
  ?fresh:Mat.t ->
  Checksum.t ->
  Mat.t ->
  outcome
(** Fused-mode verification: diffs the {e carried} checksum (updated in
    the kernel via {!Checksum.update_fused}) against a fresh reduction
    of the tile — [?fresh] if the kernel computed it in-cache, else one
    allocation-light {!Checksum.recompute_into} pass — instead of
    re-deriving everything. The clean path does no locate/patch work at
    all; any threshold breach or replica disagreement escalates to the
    full {!verify} ladder, so outcomes, corrections and healing are
    identical to [verify] whenever something is wrong. Only pass
    [?fresh] when nothing can have corrupted the tile after the kernel
    that produced it. *)

val check : ?pool:Parallel.Pool.t -> ?tol:float -> Checksum.t -> Mat.t -> bool
(** Detection only — true iff the checksum replicas agree {e and} they
    match a fresh recalculation within tolerance. Neither the tile nor
    the checksum is modified (no healing). *)

val compare_batch :
  ?pool:Parallel.Pool.t ->
  ?tol:float ->
  (Checksum.t * Mat.t) array ->
  outcome array
(** {!compare} over a batch: independent tiles fan out across the
    pool (default {!Parallel.Pool.default}) like the paper's N-stream
    concurrent checksum recalculation (Optimization 1), with outcomes
    identical to a sequential sweep for every pool size — the
    verification step of a fully fused iteration. *)

val pp_outcome : Format.formatter -> outcome -> unit
