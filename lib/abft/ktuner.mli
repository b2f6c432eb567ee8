(** Choosing the verification interval K from the system's failure rate
    (the paper's Optimization 3: "K is a parameter related to the
    failure rate of the system"; §V-C leaves the choice informal — this
    module makes the trade-off explicit).

    Larger K verifies GEMM/TRSM inputs less often, cutting the
    recalculation overhead from [(6K+6)/nK + 2/BK] toward [6/n]; but an
    error that strikes inside an unverified window has (conservatively)
    a [(K-1)/K] chance of slipping past its cheap correction point and
    forcing recovery by recomputation. With a Poisson failure rate λ
    (errors/second) the expected run time is

    [E(K) = T(K) · (1 + λ·T(K) · (K-1)/K · r)]

    where [T(K)] is the fault-free time (base time plus the modelled
    verification cost at interval K) and [r] is the relative cost of a
    recovery (1.0 = one full re-run). [optimal_k] minimises [E] over
    [1..k_max]. As λ → 0 the optimum grows (verify rarely); for large λ
    it collapses to K = 1 — matching the paper's guidance. *)

type estimate = {
  k : int;
  fault_free_s : float;  (** modelled T(K) *)
  expected_s : float;  (** E(K) under the given failure rate *)
}

val expected_time :
  base_s:float ->
  verify_cost_s:(int -> float) ->
  error_rate:float ->
  ?recovery_factor:float ->
  int ->
  estimate
(** [expected_time ~base_s ~verify_cost_s ~error_rate k] evaluates one
    candidate. [verify_cost_s k] is the verification time added at
    interval [k]; [recovery_factor] defaults to [1.0].
    @raise Invalid_argument if [k < 1] or [error_rate < 0]. *)

val optimal_k :
  base_s:float ->
  verify_cost_s:(int -> float) ->
  error_rate:float ->
  ?recovery_factor:float ->
  ?k_max:int ->
  unit ->
  estimate
(** The [k] in [1..k_max] (default 16) minimising expected time. *)

val verify_cost_model :
  machine:Hetsim.Machine.t ->
  n:int ->
  b:int ->
  streams:int ->
  int ->
  float
(** The bandwidth-bound cost of Enhanced verification at interval [k]
    on a machine: the Table-V traffic ([(2n² + 2n²/k + 2n³/3bk) · 2]
    bytes) over the aggregate BLAS-2 bandwidth at the given concurrent
    stream width — a closed-form stand-in for running the simulator,
    suitable for on-line tuning. The checksum updates ride the fused
    tile kernels, as in the drivers, so they add no standalone
    traffic. *)
