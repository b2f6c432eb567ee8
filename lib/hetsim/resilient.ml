(* Failure-aware scheduling layer over Engine.

   The driver mirrors the Engine submission API but routes every
   operation through the failure-aware [_result] paths and implements
   the recovery policy the engine itself deliberately does not have:

   - deadline-based hang detection (the engine charges the watchdog
     timeout; this layer decides what happens next),
   - seeded-deterministic retry with capped exponential backoff and
     jitter, realized as resource-free [Engine.delay] spans so backoff
     time is visible in the timeline under the "backoff" phase,
   - per-device health scoring with quarantine once the score drops
     below the policy threshold,
   - graceful degradation: once the GPU is quarantined or lost, all
     remaining GPU work is re-planned onto the CPU (the cost model
     prices it there) and host<->device transfers are skipped.

   Corrupted transfers are deliberately NOT retried: the copy looked
   successful, so a scheduling-level retry would mask the error the
   ABFT checksum layer exists to catch. They are counted and surfaced
   so the caller can account for them as storage errors. *)

type policy = {
  max_retries : int;
  base_backoff_s : float;
  backoff_factor : float;
  max_backoff_s : float;
  jitter : float;
  quarantine_threshold : float;
  fault_penalty : float;
  success_credit : float;
  reprobe_after_s : float;
  reprobe_successes : int;
}

let default_policy =
  {
    max_retries = 3;
    base_backoff_s = 1e-3;
    backoff_factor = 2.0;
    max_backoff_s = 0.1;
    jitter = 0.25;
    quarantine_threshold = 0.2;
    fault_penalty = 0.6;
    success_credit = 0.05;
    (* re-probing is opt-in: with an infinite cooldown a quarantine is
       final, which is the historical behaviour existing traces and
       tests pin down *)
    reprobe_after_s = infinity;
    reprobe_successes = 2;
  }

type device_stats = {
  submitted : int;
  completed : int;
  transient_faults : int;
  hangs : int;
  retries : int;
  backoff_s : float;
  quarantined_at : float option;
  lost_at : float option;
}

type stats = {
  cpu : device_stats;
  gpu : device_stats;
  corrupted_transfers : int;
  skipped_transfers : int;
  degraded_ops : int;
  degraded_at : float option;
  reprobes : int;
  rejoins : int;
  resplits : int;
}

exception
  Gave_up of {
    resource : Engine.resource;
    failure : Engine.failure;
    attempts : int;
    stats : stats;
  }

(* mutable per-device counters; [health] starts at 1.0, multiplies by
   [fault_penalty] per fault and gains [success_credit] (capped at 1.0)
   per completion *)
type dev = {
  mutable submitted : int;
  mutable completed : int;
  mutable transient_faults : int;
  mutable hangs : int;
  mutable retries : int;
  mutable backoff_s : float;
  mutable health : float;
  mutable quarantined_at : float option;
  mutable lost_at : float option;
  mutable quarantine_episodes : int;
  mutable probe_successes : int;
}

let fresh_dev () =
  {
    submitted = 0;
    completed = 0;
    transient_faults = 0;
    hangs = 0;
    retries = 0;
    backoff_s = 0.;
    health = 1.0;
    quarantined_at = None;
    lost_at = None;
    quarantine_episodes = 0;
    probe_successes = 0;
  }

type t = {
  engine : Engine.t;
  policy : policy;
  rng : Random.State.t;  (* jitter draws only; one per backoff *)
  cpu : dev;
  gpu : dev;  (* GPU main engine and spare channel share fate *)
  obs : Obs.t;  (* event counters; Obs.null unless the caller traces *)
  balancer : Load_balancer.t option;
      (* fed per-operation useful/wasted accounting and the
         quarantine/rejoin edges; None = static split, no feedback *)
  mutable corrupted_transfers : int;
  mutable skipped_transfers : int;
  mutable degraded_ops : int;
  mutable degraded_at : float option;
  mutable reprobes : int;
  mutable rejoins : int;
}

let create ?(policy = default_policy) ?balancer ?(seed = 0) ?(obs = Obs.null)
    engine =
  {
    engine;
    policy;
    rng = Random.State.make [| 0xbac0ff; seed |];
    cpu = fresh_dev ();
    gpu = fresh_dev ();
    obs;
    balancer;
    corrupted_transfers = 0;
    skipped_transfers = 0;
    degraded_ops = 0;
    degraded_at = None;
    reprobes = 0;
    rejoins = 0;
  }

let engine t = t.engine
let machine t = Engine.machine t.engine
let balancer t = t.balancer

let balancer_iter t f =
  match t.balancer with None -> () | Some b -> f b

let dev_of t = function
  | Engine.Cpu -> t.cpu
  | Engine.Gpu | Engine.Gpu_spare -> t.gpu
  | Engine.Link_h2d | Engine.Link_d2h ->
      invalid_arg "Resilient: links have no device health"

let unavailable d =
  Option.is_some d.quarantined_at || Option.is_some d.lost_at

let gpu_unavailable t = unavailable t.gpu
let degraded t = Option.is_some t.degraded_at

let mark_degraded t ~now =
  t.degraded_ops <- t.degraded_ops + 1;
  Obs.incr t.obs "resilient.cpu_fallbacks";
  if Option.is_none t.degraded_at then t.degraded_at <- Some now

let note_lost t d ev =
  if Option.is_none d.lost_at then begin
    d.lost_at <- Some ev;
    Obs.incr t.obs "resilient.device_losses";
    if d == t.gpu then balancer_iter t Load_balancer.gpu_down
  end

let quarantine t d ~now =
  if Option.is_none d.quarantined_at then begin
    d.quarantined_at <- Some now;
    d.quarantine_episodes <- d.quarantine_episodes + 1;
    d.probe_successes <- 0;
    Obs.incr t.obs "resilient.quarantines"
    (* deliberately NOT [Load_balancer.gpu_down]: quarantine is
       transient and the reroute already moves the work, so the split
       must keep nominating GPU rows — those rerouted submissions are
       the probe traffic that ends the quarantine. Zeroing the split
       here starves the probes and leaves the healed GPU idle for
       iterations longer than the static split would. Only a permanent
       loss ({!note_lost}) collapses the split. *)
  end

(* A failed half-open probe: the device was already quarantined, so
   {!quarantine}'s first-time guard does not fire — restart the
   cooldown clock from the probe's failure time and escalate the
   episode count so the next eligibility window is further out. *)
let requarantine t d ~now =
  d.quarantined_at <- Some now;
  d.quarantine_episodes <- d.quarantine_episodes + 1;
  d.probe_successes <- 0;
  Obs.incr t.obs "resilient.quarantines"
(* like {!quarantine}, the balancer split is left alone — see above *)

(* health update after one fault; only the GPU can be quarantined — the
   CPU is the fallback of last resort, so a sick CPU keeps limping
   until its retry budget runs out and the driver gives up *)
let penalize t d ~gpu ~now =
  d.health <- d.health *. t.policy.fault_penalty;
  if gpu && d.health < t.policy.quarantine_threshold then quarantine t d ~now

let credit t d =
  d.completed <- d.completed + 1;
  d.health <- Float.min 1.0 (d.health +. t.policy.success_credit)

let note_fault d = function
  | Engine.Hang _ -> d.hangs <- d.hangs + 1
  | Engine.Transient_fault -> d.transient_faults <- d.transient_faults + 1
  | Engine.Corrupted_transfer | Engine.Device_lost -> ()

let jittered_backoff ~base ~factor ~cap ~jitter rng k =
  let b = Float.min (base *. (factor ** float_of_int k)) cap in
  let u = Random.State.float rng 1. in
  b *. (1. +. (jitter *. ((2. *. u) -. 1.)))

let deps_now t deps = Engine.time_of t.engine (Engine.join t.engine deps)

let snapshot (d : dev) : device_stats =
  {
    submitted = d.submitted;
    completed = d.completed;
    transient_faults = d.transient_faults;
    hangs = d.hangs;
    retries = d.retries;
    backoff_s = d.backoff_s;
    quarantined_at = d.quarantined_at;
    lost_at = d.lost_at;
  }

let stats t =
  {
    cpu = snapshot t.cpu;
    gpu = snapshot t.gpu;
    corrupted_transfers = t.corrupted_transfers;
    skipped_transfers = t.skipped_transfers;
    degraded_ops = t.degraded_ops;
    degraded_at = t.degraded_at;
    reprobes = t.reprobes;
    rejoins = t.rejoins;
    resplits =
      (match t.balancer with
      | None -> 0
      | Some b -> Load_balancer.resplits b);
  }

(* The retry driver. [run ~extra] performs one attempt with [extra]
   prepended to the dependency list (used to chain a retry after its
   backoff delay, or a fallback after the failure it reacts to).
   [fallback] is invoked with the failure event once this resource is
   given up on; [None] (the CPU) means exhaustion raises {!Gave_up}.
   The loop is bounded by [policy.max_retries] — each attempt either
   completes, backs off into the next attempt, or fails over. *)
let retried t ~resource ~run ~fallback =
  let d = dev_of t resource in
  let gpu =
    match resource with
    | Engine.Gpu | Engine.Gpu_spare -> true
    | Engine.Cpu | Engine.Link_h2d | Engine.Link_d2h -> false
  in
  (* everything this operation charged beyond its one successful
     attempt: failed-attempt durations, hang timeouts, backoffs — the
     balancer's efficiency signal *)
  let wasted = ref 0. in
  let observe ~useful_s =
    balancer_iter t (fun b ->
        Load_balancer.observe b resource ~useful_s ~wasted_s:!wasted)
  in
  let fail_over ~failure ~attempt ~ev =
    match fallback with
    | Some fb ->
        (* the operation is abandoned to the other device: this one got
           zero useful seconds out of everything it charged *)
        observe ~useful_s:0.;
        mark_degraded t ~now:(Engine.time_of t.engine ev);
        fb ev
    | None ->
        raise
          (Gave_up { resource; failure; attempts = attempt + 1; stats = stats t })
  in
  let rec go ~attempt ~extra =
    d.submitted <- d.submitted + 1;
    if attempt > 0 then begin
      d.retries <- d.retries + 1;
      Obs.incr t.obs "resilient.retries"
    end;
    match run ~extra with
    | Engine.Completed ev ->
        credit t d;
        observe ~useful_s:(Engine.last_duration t.engine);
        ev
    | Engine.Failed (Engine.Corrupted_transfer, _) ->
        (* kernels cannot corrupt transfers; only Resilient.transfer
           sees this outcome *)
        assert false
    | Engine.Failed (Engine.Device_lost, ev) ->
        note_lost t d (Engine.time_of t.engine ev);
        fail_over ~failure:Engine.Device_lost ~attempt ~ev
    | Engine.Failed ((Engine.Transient_fault | Engine.Hang _) as f, ev) ->
        let now = Engine.time_of t.engine ev in
        wasted := !wasted +. Engine.last_duration t.engine;
        note_fault d f;
        Obs.incr t.obs
          (match f with
          | Engine.Hang _ -> "resilient.hangs"
          | _ -> "resilient.transients");
        penalize t d ~gpu ~now;
        if unavailable d then fail_over ~failure:f ~attempt ~ev
        else if attempt >= t.policy.max_retries then begin
          (* retry budget exhausted: stop trusting this device *)
          if gpu then quarantine t d ~now;
          fail_over ~failure:f ~attempt ~ev
        end
        else begin
          let p = t.policy in
          let b =
            jittered_backoff ~base:p.base_backoff_s ~factor:p.backoff_factor
              ~cap:p.max_backoff_s ~jitter:p.jitter t.rng attempt
          in
          d.backoff_s <- d.backoff_s +. b;
          wasted := !wasted +. b;
          Obs.observe t.obs "resilient.backoff_s" b;
          let delay_ev =
            Engine.delay t.engine ~deps:[ ev ] ~phase:"backoff" ~label:"backoff"
              b
          in
          go ~attempt:(attempt + 1) ~extra:[ delay_ev ]
        end
  in
  go ~attempt:0 ~extra:[]

(* Half-open re-probe eligibility (breaker idiom, cf. lib/server):
   a quarantined — not lost — GPU may receive one single-attempt probe
   once [reprobe_after_s] of virtual time has elapsed since (re-)entry
   into quarantine, with the cooldown doubling per quarantine episode
   (capped at 2^6) so a genuinely sick device is probed ever more
   rarely. Disabled entirely at the default infinite cooldown. *)
let probe_cooldown t d =
  let ep = max 1 d.quarantine_episodes in
  t.policy.reprobe_after_s *. (2. ** float_of_int (min 6 (ep - 1)))

let probe_due t d ~now =
  match (d.quarantined_at, d.lost_at) with
  | Some q, None ->
      Float.is_finite t.policy.reprobe_after_s && now >= q +. probe_cooldown t d
  | _ -> false

let rejoin t d ~now:_ =
  d.quarantined_at <- None;
  d.probe_successes <- 0;
  (* restored health starts exactly at the quarantine threshold: the
     device is trusted again but one fresh fault sends it straight
     back, with a longer cooldown *)
  d.health <- Float.max d.health t.policy.quarantine_threshold;
  t.rejoins <- t.rejoins + 1;
  Obs.incr t.obs "resilient.rejoins";
  if d == t.gpu then balancer_iter t Load_balancer.gpu_up

let submit t ?stream ?(deps = []) ?(phase = "compute") resource kernel =
  match resource with
  | Engine.Link_h2d | Engine.Link_d2h ->
      invalid_arg "Resilient.submit: use Resilient.transfer for link operations"
  | Engine.Cpu ->
      retried t ~resource:Engine.Cpu ~fallback:None ~run:(fun ~extra ->
          Engine.submit_result t.engine ?stream ~deps:(deps @ extra) ~phase
            Engine.Cpu kernel)
  | (Engine.Gpu | Engine.Gpu_spare) as r ->
      let cpu_run ~extra =
        Engine.submit_result t.engine ?stream ~deps:(deps @ extra) ~phase
          Engine.Cpu kernel
      in
      let cpu_retried ~after =
        retried t ~resource:Engine.Cpu ~fallback:None ~run:(fun ~extra ->
            cpu_run ~extra:(after @ extra))
      in
      if gpu_unavailable t then begin
        let now = deps_now t deps in
        let d = t.gpu in
        if probe_due t d ~now then begin
          (* one bounded attempt, no retry loop: a probe either earns
             trust or re-quarantines with an escalated cooldown *)
          d.submitted <- d.submitted + 1;
          t.reprobes <- t.reprobes + 1;
          Obs.incr t.obs "resilient.reprobes";
          match Engine.submit_result t.engine ?stream ~deps ~phase r kernel with
          | Engine.Failed (Engine.Corrupted_transfer, _) ->
              (* kernels cannot corrupt transfers *)
              assert false
          | Engine.Completed ev ->
              credit t d;
              d.probe_successes <- d.probe_successes + 1;
              balancer_iter t (fun b ->
                  Load_balancer.observe b r
                    ~useful_s:(Engine.last_duration t.engine)
                    ~wasted_s:0.);
              if d.probe_successes >= t.policy.reprobe_successes then
                rejoin t d ~now:(Engine.time_of t.engine ev);
              ev
          | Engine.Failed (Engine.Device_lost, ev) ->
              let now = Engine.time_of t.engine ev in
              note_lost t d now;
              mark_degraded t ~now;
              cpu_retried ~after:[ ev ]
          | Engine.Failed ((Engine.Transient_fault | Engine.Hang _) as f, ev)
            ->
              let now = Engine.time_of t.engine ev in
              note_fault d f;
              Obs.incr t.obs
                (match f with
                | Engine.Hang _ -> "resilient.hangs"
                | _ -> "resilient.transients");
              d.health <- d.health *. t.policy.fault_penalty;
              balancer_iter t (fun b ->
                  Load_balancer.observe b r ~useful_s:0.
                    ~wasted_s:(Engine.last_duration t.engine));
              requarantine t d ~now;
              mark_degraded t ~now;
              cpu_retried ~after:[ ev ]
        end
        else begin
          mark_degraded t ~now;
          retried t ~resource:Engine.Cpu ~fallback:None ~run:cpu_run
        end
      end
      else
        retried t ~resource:r
          ~run:(fun ~extra ->
            Engine.submit_result t.engine ?stream ~deps:(deps @ extra) ~phase r
              kernel)
          ~fallback:(Some (fun ev -> cpu_retried ~after:[ ev ]))

let submit_background t ?(deps = []) ?(phase = "compute") kernel =
  submit t ~deps ~phase Engine.Gpu_spare kernel

let submit_batch t ?(deps = []) ?(phase = "compute") ~streams kernels =
  match kernels with
  | [] -> Engine.join t.engine deps
  | _ ->
      (* re-planning a concurrent BLAS-2 batch onto the CPU loses the
         concurrency benefit: each kernel is submitted individually
         (serialized by the CPU resource clock) and the batch completes
         at their join *)
      let on_cpu ~deps =
        let evs = List.map (fun k -> submit t ~deps ~phase Engine.Cpu k) kernels in
        Engine.join t.engine evs
      in
      if gpu_unavailable t then begin
        mark_degraded t ~now:(deps_now t deps);
        on_cpu ~deps
      end
      else
        retried t ~resource:Engine.Gpu
          ~run:(fun ~extra ->
            Engine.submit_batch_result t.engine ~deps:(deps @ extra) ~phase
              ~streams kernels)
          ~fallback:(Some (fun ev -> on_cpu ~deps:(ev :: deps)))

let transfer t ?(deps = []) ?(phase = "transfer") ~dir bytes =
  if gpu_unavailable t then begin
    (* nothing on the other side: the CPU-resident fallback works on
       host copies, so the transfer is dropped, not re-routed *)
    t.skipped_transfers <- t.skipped_transfers + 1;
    Obs.incr t.obs "resilient.skipped_transfers";
    Engine.join t.engine deps
  end
  else
    match Engine.transfer_result t.engine ~deps ~phase ~dir bytes with
    | Engine.Completed ev -> ev
    | Engine.Failed (Engine.Corrupted_transfer, ev) ->
        (* count it and let it through: the payload error is healed by
           the ABFT verify path, never by a blind scheduling retry *)
        t.corrupted_transfers <- t.corrupted_transfers + 1;
        Obs.incr t.obs "resilient.corrupted_transfers";
        ev
    | Engine.Failed (Engine.Device_lost, ev) ->
        let now = Engine.time_of t.engine ev in
        note_lost t t.gpu now;
        t.skipped_transfers <- t.skipped_transfers + 1;
        Obs.incr t.obs "resilient.skipped_transfers";
        if Option.is_none t.degraded_at then t.degraded_at <- Some now;
        ev
    | Engine.Failed ((Engine.Transient_fault | Engine.Hang _), _) ->
        (* transfer_result only fails with corruption or device loss *)
        assert false

let pp_stats fmt (s : stats) =
  let dev name (d : device_stats) =
    Format.fprintf fmt
      "  %s: %d submitted, %d completed, %d transient, %d hangs, %d retries, \
       %.4fs backoff%s%s@,"
      name d.submitted d.completed d.transient_faults d.hangs d.retries
      d.backoff_s
      (match d.quarantined_at with
      | None -> ""
      | Some x -> Printf.sprintf ", quarantined@%.4fs" x)
      (match d.lost_at with
      | None -> ""
      | Some x -> Printf.sprintf ", lost@%.4fs" x)
  in
  Format.fprintf fmt "@[<v>resilient driver:@,";
  dev "cpu" s.cpu;
  dev "gpu" s.gpu;
  Format.fprintf fmt
    "  %d corrupted transfer(s), %d skipped transfer(s), %d degraded op(s)%s@,"
    s.corrupted_transfers s.skipped_transfers s.degraded_ops
    (match s.degraded_at with
    | None -> ""
    | Some x -> Printf.sprintf ", degraded@%.4fs" x);
  Format.fprintf fmt "  %d reprobe(s), %d rejoin(s), %d resplit(s)@]"
    s.reprobes s.rejoins s.resplits
