(** Failure-aware scheduling layer over {!Engine}.

    Mirrors the Engine submission API but routes every operation
    through the failure-aware [_result] paths and reacts to the
    structured failures the engine reports:

    - {b Hangs} are detected by deadline: the engine charges the
      device's watchdog timeout, then this layer retries.
    - {b Transient faults and hangs} are retried up to
      [policy.max_retries] times with capped exponential backoff and
      seeded jitter; backoff spans appear in the timeline as
      resource-free delays under the ["backoff"] phase.
    - {b Health scoring}: each device starts at health 1.0; a fault
      multiplies by [fault_penalty], a completion adds
      [success_credit] (capped at 1.0). When the GPU's health drops
      below [quarantine_threshold] — or its retry budget for a single
      operation is exhausted — it is quarantined.
    - {b Degradation}: once the GPU is quarantined or lost, remaining
      GPU work is re-planned onto the CPU (priced by the cost model on
      the CPU device) and host<->device transfers are skipped. The CPU
      is the fallback of last resort and is never quarantined; if it
      exhausts its own retry budget the driver raises {!Gave_up}.
    - {b Half-open re-probe}: with a finite [policy.reprobe_after_s], a
      quarantined (not lost) GPU periodically receives one
      single-attempt probe kernel through {!submit}; after
      [policy.reprobe_successes] consecutive successes the quarantine
      is lifted and the device rejoins (the attached load balancer is
      told via [gpu_up]). A failed probe re-quarantines with a doubled
      cooldown. At the default infinite cooldown this path is inert and
      quarantine remains final.
    - {b Corrupted transfers} are never retried: the copy looked
      successful, so retrying would mask the very error the ABFT
      checksum layer exists to catch. They are counted in {!stats} and
      the event is returned as if completed; callers account for them
      as storage errors in the verify path.

    All randomness (jitter) comes from a [Random.State] seeded at
    {!create}, and the engine's own failure draws are seeded at
    {!Engine.create}, so a given seed pair reproduces the exact same
    failure/retry/quarantine/degradation trace. On a machine whose
    devices are {!Device.reliable} the driver is an exact pass-through:
    same events, same records, same makespan, zero RNG draws. *)

type policy = {
  max_retries : int;  (** retries per operation beyond the first try *)
  base_backoff_s : float;  (** backoff before the first retry *)
  backoff_factor : float;  (** multiplier per further retry *)
  max_backoff_s : float;  (** backoff cap *)
  jitter : float;
      (** symmetric jitter fraction: each backoff is scaled by a factor
          drawn from [1-jitter, 1+jitter] *)
  quarantine_threshold : float;
      (** GPU health below this → quarantine *)
  fault_penalty : float;  (** multiplicative health hit per fault *)
  success_credit : float;  (** additive health gain per completion *)
  reprobe_after_s : float;
      (** half-open re-probe cooldown: virtual seconds after
          (re-)entering quarantine before the GPU may receive one
          single-attempt probe kernel. The cooldown doubles per
          quarantine episode (capped at [2^6×]). [infinity] (the
          default) disables re-probing — a quarantine is then final,
          the historical behaviour. *)
  reprobe_successes : int;
      (** consecutive successful probes required before the GPU rejoins
          (its quarantine is lifted and health restored to the
          quarantine threshold) *)
}

val default_policy : policy
(** 3 retries, 1ms..100ms backoff doubling with 25% jitter, health
    penalty 0.6 / credit 0.05 / quarantine below 0.2 (so roughly four
    consecutive faults, or one fully failed operation, quarantine the
    GPU); re-probing disabled ([reprobe_after_s = infinity], 2
    successes to rejoin once enabled). *)

val jittered_backoff :
  base:float ->
  factor:float ->
  cap:float ->
  jitter:float ->
  Random.State.t ->
  int ->
  float
(** [jittered_backoff ~base ~factor ~cap ~jitter rng k] is the [k]-th
    (0-based) wait of a capped exponential with symmetric jitter:
    [min cap (base * factor^k)] scaled by one uniform draw from [rng]
    in [1-jitter, 1+jitter]. The driver's retry backoff and
    [Serving.Breaker]'s open-state cooldown both use it. *)

type device_stats = {
  submitted : int;  (** attempts on this device, including retries *)
  completed : int;
  transient_faults : int;
  hangs : int;
  retries : int;
  backoff_s : float;  (** total modelled backoff time *)
  quarantined_at : float option;  (** virtual quarantine time *)
  lost_at : float option;  (** virtual permanent-dropout time *)
}

type stats = {
  cpu : device_stats;
  gpu : device_stats;  (** GPU main engine + spare channel combined *)
  corrupted_transfers : int;
  skipped_transfers : int;  (** transfers dropped after degradation *)
  degraded_ops : int;  (** operations re-planned onto the CPU *)
  degraded_at : float option;
      (** virtual time degradation began, [None] if never *)
  reprobes : int;  (** half-open probe kernels sent to a quarantined GPU *)
  rejoins : int;  (** quarantines lifted after enough probe successes *)
  resplits : int;
      (** applied split changes reported by the attached load balancer;
          0 when no balancer is attached *)
}

exception
  Gave_up of {
    resource : Engine.resource;
    failure : Engine.failure;
    attempts : int;
    stats : stats;
  }
(** Raised when the fallback of last resort (the CPU) exhausts its
    retry budget or is itself lost. [stats] is the driver's counter
    snapshot at the moment of giving up, so callers can aggregate what
    the run cost even though it did not complete — discarding these
    partial counters was how campaign totals silently drifted. *)

type t

val create :
  ?policy:policy ->
  ?balancer:Load_balancer.t ->
  ?seed:int ->
  ?obs:Obs.t ->
  Engine.t ->
  t
(** [create ?policy ?seed engine] wraps [engine]. [seed] (default 0)
    drives only the backoff jitter; pair it with the engine's own seed
    for full reproducibility.

    [balancer] (default none) receives per-operation useful/wasted
    accounting via {!Load_balancer.observe}, plus
    {!Load_balancer.gpu_down} on permanent device loss and
    {!Load_balancer.gpu_up} on rejoin after quarantine. A (transient)
    quarantine deliberately does NOT collapse the split: the reroute
    already moves the work, and the still-nominated GPU submissions
    are the probe traffic that ends the quarantine. The driver never
    calls {!Load_balancer.tick} — cutting rows is the schedule's
    decision.

    [obs] (default [Obs.null]) receives one counter increment per
    resilience event — ["resilient.retries"], ["resilient.transients"],
    ["resilient.hangs"], ["resilient.corrupted_transfers"],
    ["resilient.skipped_transfers"], ["resilient.quarantines"],
    ["resilient.cpu_fallbacks"], ["resilient.device_losses"],
    ["resilient.reprobes"], ["resilient.rejoins"] — and a
    ["resilient.backoff_s"] histogram observation per backoff. The
    same information is available after the fact via {!stats}; the
    sink exists so one trace carries both numeric-driver spans and
    scheduling events. *)

val engine : t -> Engine.t
val machine : t -> Machine.t

val balancer : t -> Load_balancer.t option
(** The balancer passed at {!create}, if any. *)

(** {1 Issuing operations}

    Drop-in counterparts of the Engine entry points; each returns the
    completion event of the operation's final (successful or
    degraded) attempt.
    @raise Gave_up when the CPU fallback is exhausted. *)

val submit :
  t ->
  ?stream:Engine.stream ->
  ?deps:Engine.event list ->
  ?phase:string ->
  Engine.resource ->
  Kernel.t ->
  Engine.event

val submit_batch :
  t ->
  ?deps:Engine.event list ->
  ?phase:string ->
  streams:int ->
  Kernel.t list ->
  Engine.event
(** The batch faults as one operation. If it must degrade, the batch
    is re-planned as individual kernels on the CPU (the concurrency
    benefit is lost) completing at their join. *)

val submit_background :
  t -> ?deps:Engine.event list -> ?phase:string -> Kernel.t -> Engine.event
(** Spare-channel submission; shares the GPU's fate and health. *)

val transfer :
  t ->
  ?deps:Engine.event list ->
  ?phase:string ->
  dir:[ `H2d | `D2h ] ->
  int ->
  Engine.event
(** Corrupted transfers complete normally (counted, healed by ABFT
    downstream); once the GPU is gone transfers are skipped and their
    dependencies' join is returned. *)

(** {1 Interrogation} *)

val degraded : t -> bool
(** Whether any operation has been re-planned onto the CPU (or a
    transfer dropped) because the GPU was quarantined or lost. *)

val gpu_unavailable : t -> bool
(** Whether the GPU is currently quarantined or lost. *)

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
