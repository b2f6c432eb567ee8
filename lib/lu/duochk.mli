(** Dual (column + row) checksums for one tile — the encoding FT-LU
    needs.

    Cholesky only ever reads and writes the lower triangle, so column
    checksums suffice. LU is two-sided: the L panel wants *column*
    checksums (an error is located by its row index), the U panel wants
    *row* checksums (located by its column index), and trailing tiles
    must maintain both so either factor's update can be verified. A row
    checksum of [A] is simply a column checksum of [Aᵀ], which lets the
    whole {!Abft.Verify} machinery be reused through a transpose.

    Update rules, mirroring {!Abft.Update} on both sides:
    - trailing GEMM [C -= L·U]:
      [colchk(C) -= colchk(L)·U] and [rowchk(C) -= L·rowchk(U)]
    - GETF2 [A → L\U]:
      [colchk(L) = colchk(A)·U⁻¹] and [rowchk(U) = L⁻¹·rowchk(A)]
    - column-panel TRSM [L = A·U₁₁⁻¹]: [colchk(L) = colchk(A)·U₁₁⁻¹]
    - row-panel TRSM [U = L₁₁⁻¹·A]: [rowchk(U) = L₁₁⁻¹·rowchk(A)] *)

open Matrix

type t
(** Column and row checksums of one tile, mutable. *)

val encode : ?d:int -> Mat.t -> t
(** Encode both sides of a square tile (default [d = 2]). *)

val col : t -> Abft.Checksum.t
(** The column-checksum half (live). *)

val row : t -> Abft.Checksum.t
(** The row-checksum half, represented as a column checksum of the
    tile's transpose (live). *)

(** {1 Verification} *)

val verify_col : ?tol:float -> t -> Mat.t -> Abft.Verify.outcome
(** Verify and correct the tile against its column checksums —
    corrections land in the tile. *)

val verify_row : ?tol:float -> t -> Mat.t -> Abft.Verify.outcome
(** Verify and correct against the row checksums: the tile is checked
    transposed, and any corrections are written back untransposed. The
    reported corrections' [(row, col)] are in tile coordinates. *)

val compare_col : ?tol:float -> t -> Mat.t -> Abft.Verify.outcome
(** The driver's column verification ({!Abft.Verify.compare}): cheap
    carried-vs-fresh diff, escalating to the full locate/patch ladder
    only on a mismatch. *)

val compare_row : ?tol:float -> t -> Mat.t -> Abft.Verify.outcome
(** The driver's row verification — the transposed analogue of
    {!compare_col}, with corrections reported in tile coordinates. *)

val compare_both : ?tol:float -> t -> Mat.t -> Abft.Verify.outcome
(** {!compare_col} then {!compare_row}: the combined corrections (a
    replica repair if either side healed one), or the first
    uncorrectable outcome. *)

(** {1 Update rules} *)

val getf2 : t -> lu_packed:Mat.t -> unit
(** Diagonal-tile factorization: the column side becomes [chk(L)], the
    row side becomes [chk(U)]. *)

val row_panel : t -> l_diag:Mat.t -> unit
(** Row-panel solve against the factored diagonal's [L]. *)

(** {1 Fused-kernel carry}

    The column side of the LU update rules has the same shape as the
    tile operation itself (extra rows of [op(a)] riding a [No_trans]
    GEMM, or a [Right]-side solve), so it can be carried through the
    fused BLAS-3 kernels. The row side cannot: the trailing row rule
    multiplies by [Lᵀ] while the tile GEMM multiplies by [U], and the
    row-panel solve is [Left]-sided — both stay separate passes
    ({!gemm_row}, {!row_panel}). *)

val fuse_col : l_chk:t -> t -> Blas3.fuse
(** [fuse_col ~l_chk c] carries [colchk(C) -= colchk(L)·U] through the
    trailing tile GEMM — pass as its [?fused] argument. *)

val solve_col : t -> Blas3.fuse
(** Carry the column-panel solve [colchk(L) = colchk(A)·U₁₁⁻¹] through
    the tile TRSM — pass as the [?fused] argument of the same
    [Right Upper No_trans] solve. *)

val gemm_row : c:t -> u_chk:t -> l:Mat.t -> unit
(** The row half of the trailing update, [rowchk(C) -= L·rowchk(U)] —
    the separate pass beside the column half carried by
    {!fuse_col}. *)

val copy : t -> t
