(** The machinery the three timing schedules ({!Schedule},
    [Ftlu.Schedule_lu], [Ftqr.Schedule_qr]) share. Each schedule keeps
    its own operation order and data-movement model; what lives here is
    the family-level part of the paper's schedule claims:

    - one verification = a concurrent batch of recalculation kernels
      (Optimization 1) plus one compare;
    - checksum updates routed by the resolved placement
      (Optimization 2);
    - the load balancer's CPU/GPU cut of a compute kernel (DESIGN §7b);
    - the recovery charge: an uncorrected fault, or a corrupted transfer
      on a scheme that cannot heal storage errors, costs one extra full
      pass (Tables VII/VIII).

    The engine operations each function issues, and their order, are
    part of the contract: virtual makespans, resilience draws and the
    Cholesky trace are pinned by the golden schedule fingerprints
    ([test/fixtures/schedule_fingerprints.txt]). *)

type t = {
  scheme : Abft.Scheme.t;
  eng : Hetsim.Engine.t;
  res : Hetsim.Resilient.t;
  bal : Hetsim.Load_balancer.t option;  (** [None] when balancing is off *)
  obs : Obs.t;
  b : int;  (** tile size *)
  d : int;  (** checksum rows per tile *)
  streams : int;  (** recalculation batch width *)
  placement : Config.placement;  (** resolved, never [Auto] *)
  recalc : Hetsim.Kernel.t;  (** one checksum recalculation *)
  upload : bool;
      (** under [Cpu_offload], ship the stored checksums to the device
          before each verification *)
  with_ft : bool;
  enhanced : bool;
  online : bool;
  offline : bool;
  kk : int;  (** the scheme's verification interval *)
}

type result = {
  makespan : float;  (** virtual seconds, including any recovery pass *)
  gflops : float;  (** useful flops / makespan / 1e9 *)
  reruns : int;  (** recovery passes appended (0 or 1) *)
  engine : Hetsim.Engine.t;  (** for phase decomposition and traces *)
  resilience : Hetsim.Resilient.stats;
      (** retry/quarantine/degradation accounting; all-zero on
          reliable machines *)
  degraded : bool;
      (** true iff the GPU was quarantined or lost and the run
          finished on the CPU *)
}

val create :
  name:string ->
  ?d:int ->
  ?panel_rows:int ->
  ?policy:Hetsim.Resilient.policy ->
  ?fault_seed:int ->
  ?obs:Obs.t ->
  Config.t ->
  n:int ->
  t
(** [create ~name cfg ~n] validates [cfg] and [n] (messages prefixed
    with [name]), resolves the placement at [n] ([Gpu_inline] under
    [No_ft]) and builds the engine (seeded with [fault_seed], default
    0), the balancer and the {!Hetsim.Resilient} driver over it. [d]
    defaults to 2. The recalculation kernel is the per-tile BLAS-2
    pass; [panel_rows] switches to QR's panel checksums: one
    [panel_rows × b] pass per panel, kept device-side under every
    placement (so [upload] is false).
    @raise Invalid_argument if [cfg] is invalid or [n] is not a
    positive multiple of the block size. *)

val verify :
  t -> deps:Hetsim.Engine.event list -> count:int -> Hetsim.Engine.event
(** [count] recalculations as one concurrent batch, then one compare on
    the GPU; under [Cpu_offload] with [upload], the stored checksums are
    uploaded first. [count = 0] issues nothing and joins [deps]. *)

val gemm_update : t -> int -> Hetsim.Kernel.t
(** [gemm_update t count]: [count] skinny [(d × b)·(b × b)] products
    as one kernel. *)

val chk_update :
  t -> deps:Hetsim.Engine.event list -> Hetsim.Kernel.t -> Hetsim.Engine.event
(** [chk_update t ~deps kernel] submits a checksum-update [kernel] where
    the placement puts checksum updating: inline on the GPU main engine,
    on the GPU spare channel, or on the CPU. *)

val split :
  t -> kernel:Hetsim.Kernel.t -> rows:int -> Hetsim.Load_balancer.split option
(** One balancer decision for [rows] block-rows of [kernel]'s work
    ([None] when balancing is off), recorded as the
    ["balance.gpu_share"] observation and, when the split moved, a
    ["balance.resplits"] increment. *)

type cut = {
  gpu : Hetsim.Engine.event;  (** the GPU share ([ready] if empty) *)
  cpu : Hetsim.Engine.event;  (** the CPU share ([ready] if empty) *)
  all : Hetsim.Engine.event;  (** both shares done *)
}

val compute_cut :
  t ->
  gpu_deps:Hetsim.Engine.event list ->
  cpu_deps:Hetsim.Engine.event list ->
  rows:int ->
  cpu_rows:int ->
  (int -> Hetsim.Kernel.t) ->
  cut
(** [compute_cut t ~rows ~cpu_rows kernel] runs [kernel rows] on the
    GPU when [cpu_rows = 0]; otherwise submits [kernel (rows - cpu_rows)]
    to the GPU (if non-empty), then [kernel cpu_rows] to the CPU, and
    joins them. *)

val finish : t -> uncorrected:Fault.t -> flops:float -> (unit -> unit) -> result
(** [finish t ~uncorrected ~flops pass] runs [pass], then runs it once
    more if [uncorrected] is non-empty or a transfer was corrupted on a
    scheme that does not correct storage errors, and reports the
    result. *)
