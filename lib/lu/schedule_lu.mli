(** Timing-mode schedule for the FT-LU extension — the LU analogue of
    {!Cholesky.Schedule}, on the same {!Hetsim.Engine} and with the same
    modelling conventions (one engine operation per kernel class per
    iteration), through the same {!Cholesky.Sched_core}: verification
    as concurrent BLAS-2 batches, checksum updating routed per
    Optimization-2 placement, the balancer's CPU/GPU cut, and one full
    recovery pass per uncorrected fault.

    The schedule is the left-looking order {!Ft_lu} executes: lazy
    diagonal update → GETF2 on the CPU (between the two PCIe diagonal
    transfers, overlapping the panels' lazy GEMMs) → column panel →
    row panel. Dual checksums double the verification and update
    traffic relative to Cholesky's single-sided encoding — the honest
    price of protecting both factors. *)

type result = Cholesky.Sched_core.result = {
  makespan : float;
  gflops : float;  (** (2n³/3) / makespan / 1e9 *)
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
  n:int ->
  result
(** [run cfg ~n] simulates FT-LU of an n×n matrix on the config's
    machine, with two checksum rows per tile side. The config's
    scheme/optimizations are honoured exactly as in
    {!Cholesky.Schedule.run}; fault classification reuses
    {!Cholesky.Schedule.uncorrected} (the [Potf2] window reads as
    GETF2).
    @raise Invalid_argument if [n] is not a positive multiple of the
    block size. *)
