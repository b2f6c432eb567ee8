(* Per-tenant circuit breaker: Closed -> Open -> Half_open with
   capped-exponential cooldown escalation and seeded jitter, the same
   backoff idiom as Hetsim.Resilient. Driven with an explicit [now]
   for deterministic tests; callers serialize access (the server calls
   it under its admission lock). *)

type policy = {
  trip_after : int;
  cooldown_base_s : float;
  cooldown_factor : float;
  cooldown_max_s : float;
  jitter : float;
  half_open_probes : int;
}

let default_policy =
  {
    trip_after = 3;
    cooldown_base_s = 0.05;
    cooldown_factor = 2.0;
    cooldown_max_s = 2.0;
    jitter = 0.25;
    half_open_probes = 1;
  }

let validate_policy p =
  if p.trip_after < 1 then Error "trip_after must be >= 1"
  else if p.cooldown_base_s <= 0. then Error "cooldown_base_s must be > 0"
  else if p.cooldown_factor < 1. then Error "cooldown_factor must be >= 1"
  else if p.cooldown_max_s < p.cooldown_base_s then
    Error "cooldown_max_s must be >= cooldown_base_s"
  else if p.jitter < 0. || p.jitter >= 1. then Error "jitter must be in [0, 1)"
  else if p.half_open_probes < 1 then Error "half_open_probes must be >= 1"
  else Ok ()

type state = Closed | Open | Half_open

(* [escalation] is the number of consecutive opens without an
   intervening success; it indexes the cooldown ladder. [until] is the
   absolute time the current open episode ends. *)
type t = {
  policy : policy;
  rng : Random.State.t;
  mutable state : state;
  mutable failures : int;  (* consecutive, closed state only *)
  mutable probes_left : int;  (* half-open state only *)
  mutable until : float;  (* open state only *)
  mutable escalation : int;
  mutable trips : int;
}

let create ?(policy = default_policy) ?(seed = 0) () =
  (match validate_policy policy with
  | Ok () -> ()
  | Error e -> invalid_arg ("Breaker.create: " ^ e));
  {
    policy;
    rng = Random.State.make [| 0xb4ea4e; seed |];
    state = Closed;
    failures = 0;
    probes_left = 0;
    until = 0.;
    escalation = 0;
    trips = 0;
  }

let state t = t.state
let trips t = t.trips

(* open [k] (0-based, the escalation) cools down on the driver's
   capped-exponential-with-jitter ladder *)
let cooldown t =
  let p = t.policy in
  Hetsim.Resilient.jittered_backoff ~base:p.cooldown_base_s
    ~factor:p.cooldown_factor ~cap:p.cooldown_max_s ~jitter:p.jitter t.rng
    t.escalation

let trip t ~now =
  t.until <- now +. cooldown t;
  t.escalation <- t.escalation + 1;
  t.trips <- t.trips + 1;
  t.state <- Open

let admit t ~now =
  match t.state with
  | Closed -> `Admit
  | Open ->
      if now >= t.until then begin
        t.state <- Half_open;
        t.probes_left <- t.policy.half_open_probes - 1;
        `Admit
      end
      else `Reject (t.until -. now)
  | Half_open ->
      if t.probes_left > 0 then begin
        t.probes_left <- t.probes_left - 1;
        `Admit
      end
      else
        (* probes in flight; cheapest honest estimate is one base
           cooldown — the probe verdict lands well within it *)
        `Reject t.policy.cooldown_base_s

let on_success t =
  t.state <- Closed;
  t.failures <- 0;
  t.escalation <- 0

let on_failure t ~now =
  match t.state with
  | Closed ->
      t.failures <- t.failures + 1;
      if t.failures >= t.policy.trip_after then begin
        t.failures <- 0;
        trip t ~now
      end
  | Half_open -> trip t ~now
  | Open -> ()
