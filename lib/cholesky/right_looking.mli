(** Right-looking (outer-product) blocked Cholesky with the Enhanced
    scheme — an ablation that justifies the paper's substrate choice.

    MAGMA's Cholesky (the paper's Algorithm 1) is the *inner-product*
    variant: every iteration re-reads all previously factored panels to
    apply their updates lazily. The textbook *right-looking* variant
    applies each panel's trailing update eagerly, in the iteration that
    produces it — so a factored tile is never read again, and pre-read
    verification has no later opportunity to catch a storage error that
    strikes it. Identical arithmetic, identical flop count, crucially
    different read pattern.

    This driver implements the right-looking order with the same
    checksum machinery. The test suite shows the punchline: a storage
    error that Enhanced-ABFT corrects under the inner-product driver
    ({!Ft}) ships silently under this one. The paper never spells this
    out — "MAGMA chose the inner product version because it has more
    BLAS Level-3 operations" — but the fault-coverage consequence is a
    second, equally strong reason. *)

open Matrix

val factor :
  ?pool:Parallel.Pool.t ->
  ?plan:Fault.t ->
  ?scheme:Abft.Scheme.t ->
  ?block:int ->
  ?tol:float ->
  ?max_restarts:int ->
  Mat.t ->
  Ft.report
(** [factor a] — same report type and defaults as {!Ft.factor} (block
    defaulting to 16 or the order if smaller), same fault-window
    mapping ([Syrk] = the eager trailing update of a diagonal tile,
    [Gemm] = of an off-diagonal tile, at the iteration that produces
    the update). Supported schemes: [No_ft], [Online], [Enhanced]
    (pre-read, K-gated trailing verifications), [Offline] (detect-only
    final check). The [trace] field of the report is left empty — there
    is no timing-mode counterpart for this ablation driver.
    @raise Invalid_argument as {!Ft.factor}, and if [block < 1]. *)
