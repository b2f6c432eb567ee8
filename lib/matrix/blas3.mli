(** BLAS level-3 kernels (matrix–matrix).

    These carry essentially all the flops of blocked Cholesky: GEMM
    updates the trailing panel, SYRK the diagonal block, TRSM solves the
    panel against the factored diagonal block. MAGMA runs all three on
    the GPU; the paper's checksum-update rules are expressed in terms of
    these same kernels applied to the (2 × B) checksum blocks.

    The main entry points ([gemm], [syrk], [trsm]) are cache-blocked
    tiled kernels that optionally fan column panels out across a
    {!Parallel.Pool.t} (defaulting to {!Parallel.Pool.default} for
    operands large enough to benefit). They fall back to the original
    naive triple loops ([gemm_naive] …) for tiny operands.

    {b Determinism.} For every kernel, the reduction order per output
    element is fixed by the operand shapes alone — panel boundaries and
    pool size never change it — so results are bitwise identical across
    [ABFT_DOMAINS] settings. Tiled and naive kernels may round
    differently from each other (blocked accumulation), but each is
    individually deterministic. *)

open Types

(** {1 Fused checksum carry}

    ABFT checksum rows are algebraically just extra rows of a virtual
    [op(a)] — so instead of re-walking operands in a separate
    checksum-update pass, a kernel can carry them through its own cache
    blocking, accumulating the d-row chains against the same packed
    scalar panel while the data is hot. [fuse] describes what to carry:

    - [f_a.(i)] / [f_c.(i)]: replica chain [i] — the weighted checksums
      of [op(a)] (d×k) and of [c] (d×n). The kernel applies its exact
      update to each [f_c.(i)] reading only [f_a.(i)], so the replica
      chains stay bitwise independent (the self-protecting store's
      invariant). For [trsm], [f_a] is [[||]]: the chain of [b] is
      co-solved in place.
    - [f_fresh] (with [f_weights], m×d): optionally receives the
      weighted reduction of the {e finished} [c] (d×n), computed while
      the output panel is still in cache. Only sound when nothing can
      corrupt [c] between the kernel and its verification — drivers
      with post-kernel fault windows must recompute at verify time
      instead (see DESIGN).

    Chain accumulation order is ascending-l per column — identical to
    the naive separate-pass [Abft.Update] rules, so fused and separate
    checksums agree bitwise, not just within tolerance.

    Setting [ABFT_BOUNDS_CHECK=1] in the environment re-routes every
    unsafe-access micro-kernel (packed saxpy, chain carry, reductions)
    through bounds-checked accesses; [bounds_checked] reports the mode. *)

type fuse = {
  f_a : Mat.t array;
  f_c : Mat.t array;
  f_fresh : Mat.t option;
  f_weights : Mat.t option;
}

val bounds_checked : bool
(** True when [ABFT_BOUNDS_CHECK] selects the checked debug build. *)

val chk_reduce : weights:Mat.t -> Mat.t -> into:Mat.t -> unit
(** [chk_reduce ~weights c ~into] computes [into <- weightsᵀ · c]
    (d×n from m×d weights and m×n [c]) without allocating — the
    verification-side reduction, bitwise identical to the in-kernel
    [f_fresh] epilogue and to [gemm_alloc ~transa:Trans weights c]. *)

val gemm :
  ?pool:Parallel.Pool.t ->
  ?transa:trans ->
  ?transb:trans ->
  ?alpha:float ->
  ?beta:float ->
  ?fused:fuse ->
  Mat.t ->
  Mat.t ->
  Mat.t ->
  unit
(** [gemm ~transa ~transb ~alpha ~beta a b c] computes
    [c <- alpha * op(a) * op(b) + beta * c] in place. Defaults:
    [No_trans], [alpha = 1.], [beta = 0.]. Large products are
    cache-blocked with the alpha·op(b) panel packed contiguous and, when
    a pool with more than one lane is available, parallelized over
    fixed-width column panels. With [~fused], checksum chains
    [f_c.(i) <- alpha * f_a.(i) * op(b) + beta * f_c.(i)] ride the same
    blocking (and [f_fresh], if set, the same panels).
    @raise Mat.Dimension_mismatch on incompatible shapes (including
    fused chain shapes). *)

val gemm_alloc :
  ?pool:Parallel.Pool.t ->
  ?transa:trans ->
  ?transb:trans ->
  ?alpha:float ->
  Mat.t ->
  Mat.t ->
  Mat.t
(** Allocating wrapper: returns [alpha * op(a) * op(b)]. *)

val syrk :
  ?pool:Parallel.Pool.t ->
  ?trans:trans ->
  ?alpha:float ->
  ?beta:float ->
  ?fused:fuse ->
  uplo ->
  Mat.t ->
  Mat.t ->
  unit
(** [syrk ~trans ~alpha ~beta uplo a c] computes the symmetric rank-k
    update [c <- alpha * a * aᵀ + beta * c] ([trans = No_trans]) or
    [c <- alpha * aᵀ * a + beta * c] ([trans = Trans]), writing only the
    [uplo] triangle of [c]. Defaults: [No_trans], [alpha = 1.],
    [beta = 0.]. With [~fused], the carried chains track the full
    symmetric product (every column), like the separate-pass
    [Abft.Update.syrk] rule; [f_fresh] is rejected. *)

val trsm :
  ?pool:Parallel.Pool.t ->
  ?alpha:float ->
  ?fused:fuse ->
  side ->
  uplo ->
  trans ->
  diag ->
  Mat.t ->
  Mat.t ->
  unit
(** [trsm ~alpha side uplo trans diag a b] solves the triangular system
    - [side = Left]:  [op(a) * X = alpha * b]
    - [side = Right]: [X * op(a) = alpha * b]
    overwriting [b] with the solution [X]. Default [alpha = 1.].
    Large solves run blocked ([Right]: a stride-1 column sweep
    parallelized over row blocks; [Left]: independent per-column solves
    across the pool). With [~fused] (Right side only), each [f_c.(i)]
    chain — the carried checksum of [b] — is co-solved against the same
    factor ([f_a] must be empty).
    @raise Failure on a zero pivot with [Non_unit_diag]. *)

val trmm :
  ?alpha:float -> side -> uplo -> trans -> diag -> Mat.t -> Mat.t -> unit
(** [trmm ~alpha side uplo trans diag a b] computes
    [b <- alpha * op(a) * b] ([Left]) or [b <- alpha * b * op(a)]
    ([Right]) with [a] triangular, reading only its [uplo] triangle
    (and not its diagonal under [Unit_diag]). A [Left] product sweeps
    the triangle once for all columns of [b], stride 1 down columns;
    [Right] runs the same sweep on [bᵀ]. *)

val symm :
  ?pool:Parallel.Pool.t ->
  ?alpha:float ->
  ?beta:float ->
  side ->
  uplo ->
  Mat.t ->
  Mat.t ->
  Mat.t ->
  unit
(** [symm ~alpha ~beta side uplo a b c] computes
    [c <- alpha * A * b + beta * c] ([Left]) or
    [c <- alpha * b * A + beta * c] ([Right]) where [A] is the symmetric
    matrix stored in the [uplo] triangle of [a]. *)

(** {1 Seed reference kernels}

    The original naive triple-loop implementations, kept as the
    fallback for tiny operands and as the property-test reference for
    the tiled kernels. *)

val gemm_naive :
  ?transa:trans ->
  ?transb:trans ->
  ?alpha:float ->
  ?beta:float ->
  Mat.t ->
  Mat.t ->
  Mat.t ->
  unit

val syrk_naive :
  ?trans:trans -> ?alpha:float -> ?beta:float -> uplo -> Mat.t -> Mat.t -> unit

val trsm_naive :
  ?alpha:float -> side -> uplo -> trans -> diag -> Mat.t -> Mat.t -> unit
