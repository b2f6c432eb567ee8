(** Timing-mode schedule for the FT-QR extension — the QR analogue of
    {!Cholesky.Schedule} / {!Ftlu.Schedule_lu}, on the same engine,
    with the same modelling conventions and the same
    {!Cholesky.Sched_core}.

    Blocked MGS is GPU-friendly: the block projections are GEMMs
    ([2mb²] flops each against a [k < j] panel), and the in-panel MGS
    is a chain of BLAS-1/2 column operations modelled as one
    bandwidth-bound pass over the panel per column pair. Panels live on
    the GPU; there is no per-iteration CPU step, so the host/link play
    no role beyond checksum placement. *)

type result = Cholesky.Sched_core.result = {
  makespan : float;
  gflops : float;  (** (2mn² − 2n³/3) / makespan / 1e9 *)
  reruns : int;
  engine : Hetsim.Engine.t;
  resilience : Hetsim.Resilient.stats;
  degraded : bool;
}
(** The shared timing result of {!Cholesky.Sched_core}. *)

val run :
  ?plan:Fault.t ->
  ?policy:Hetsim.Resilient.policy ->
  ?fault_seed:int ->
  Cholesky.Config.t ->
  m:int ->
  n:int ->
  result
(** [run cfg ~m ~n] simulates FT-QR of an m×n matrix (m ≥ n), with two
    checksum rows per panel. Fault classification reuses
    {!Cholesky.Schedule.uncorrected}, except that the [Potf2] (MGS)
    window is correctable here — the MGS step transforms data and
    checksum together (see {!Ft_qr}).
    @raise Invalid_argument unless [m >= n > 0] and [n] is a multiple
    of the block size. *)
