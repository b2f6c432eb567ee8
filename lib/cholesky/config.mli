(** Driver configuration: machine, blocking, scheme, optimizations.

    One record configures both execution modes (numeric and timing) so
    that a single value describes "the experiment". *)

(** Where checksum *updating* runs (the paper's Optimization 2). *)
type placement =
  | Auto  (** pick per {!Abft.Placement.decide} for the machine *)
  | Gpu_inline
      (** on the GPU main stream, serialized with compute — the
          unoptimized baseline *)
  | Gpu_stream  (** on a separate GPU stream (spare capacity) *)
  | Cpu_offload  (** on the CPU, paying PCIe transfers *)

type t = {
  machine : Hetsim.Machine.t;
  block : int;  (** tile size B; [0] means the machine default *)
  scheme : Abft.Scheme.t;
  opt1_concurrent_recalc : bool;
      (** batch checksum recalculations over CUDA streams *)
  opt2_placement : placement;
  recalc_streams : int;
      (** streams used when [opt1_concurrent_recalc]; [0] means the
          GPU's [max_concurrent_kernels] *)
  tol : float;  (** verification rounding threshold *)
  max_restarts : int;
      (** recovery-by-recomputation attempts before giving up — the
          last rung of the recovery ladder *)
  max_rollbacks : int;
      (** snapshot rollbacks per attempt before escalating to a full
          restart — the rung below restart *)
  snapshot_interval : int;
      (** outer iterations between verified state snapshots; [0]
          (the default) disables snapshots entirely, so clean runs and
          restart-only recovery behave exactly as without this rung *)
  balance : Hetsim.Load_balancer.mode option;
      (** CPU/GPU split of the trailing update (timing mode only):
          [None] (default) keeps the historical GPU-only trailing
          update, byte-identical to earlier versions; [Some Static]
          splits once from {!Hetsim.Cost_model.gpu_share} and never
          moves; [Some Adaptive] re-splits from observed per-device
          efficiency, shifting work away from a faulting or
          quarantined GPU. *)
  balance_interval : int;
      (** outer iterations between applied adaptive re-splits (>= 1);
          forced events (quarantine, rejoin, dropout) bypass it *)
}

val default : t
(** tardis, machine-default block, Enhanced (k = 1), both
    optimizations on, [Auto] placement, {!Abft.Verify.default_tol},
    3 restarts, 2 rollbacks, snapshots disabled, balancing off. *)

val make :
  ?machine:Hetsim.Machine.t ->
  ?block:int ->
  ?scheme:Abft.Scheme.t ->
  ?opt1:bool ->
  ?opt2:placement ->
  ?recalc_streams:int ->
  ?tol:float ->
  ?max_restarts:int ->
  ?max_rollbacks:int ->
  ?snapshot_interval:int ->
  ?balance:Hetsim.Load_balancer.mode ->
  ?balance_interval:int ->
  unit ->
  t
(** @raise Invalid_argument if [snapshot_interval] is negative (0 is
    the legitimate "snapshots disabled" value); a misconfigured
    checkpoint cadence must fail at construction, not deep inside a
    recovery. The remaining fields are range-checked by {!validate}. *)

val block_size : t -> int
(** The effective tile size (resolving [0] to the machine default). *)

val resolve_placement : t -> n:int -> placement
(** [Auto] resolved via the placement model at problem size [n];
    anything else returned unchanged. Never returns [Auto]. *)

val effective_recalc_streams : t -> int
(** Streams the recalculation batches use: 1 when Optimization 1 is
    off, otherwise [recalc_streams] (or the GPU limit when 0). *)

val divisor_block : ?target:int -> int -> int
(** [divisor_block n] is the largest divisor of [n] at most [target]
    (default 64) — the convenient tile size for numeric-mode runs on
    workload-determined matrix orders. @raise Invalid_argument if
    [n <= 0]. *)

val balancer : t -> Hetsim.Load_balancer.t option
(** A fresh balancer per {!balance}/{!t.balance_interval} over the
    configured machine, [None] when balancing is off. Each schedule
    run must create its own — balancer state is per-run. *)

val validate : t -> (unit, string) result

val pp : Format.formatter -> t -> unit
