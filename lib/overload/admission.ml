(* Admission control at the compartment boundary: a deterministic token
   bucket with per-class priority.

   The bucket refills continuously from the simulated clock (rate tokens
   per simulated second, capped at [burst]) and every admission spends
   one token. Classes express what is sheddable:

   - [Control]  — handshakes, probes, health checks: always admitted.
     Shedding control traffic under load is how systems wedge themselves
     open; control spends a token when one is available but is never
     refused.
   - [Interactive] — ordinary request traffic: needs a whole token.
   - [Bulk]     — background transfers: needs a token *and* must leave
     the reserve untouched, so bulk is shed first as the bucket drains
     and interactive traffic keeps the headroom.

   Token arithmetic is fixed-point ([unit_] = one token) in int64, so
   refill is exact and the controller is bit-deterministic from the
   simulated clock — same seed, same admissions. *)

type klass = Control | Interactive | Bulk

let klass_index = function Control -> 0 | Interactive -> 1 | Bulk -> 2

type t = {
  rate_per_sec : int;
  burst_units : int64;
  reserve_units : int64;  (* bulk must leave this many units behind *)
  now : unit -> int64;
  mutable tokens : int64;
  mutable last : int64;
  admitted : int array;  (* per class *)
  shed : int array;      (* per class *)
}

let unit_ = 1_000_000_000L

let create ?(rate_per_sec = 100_000) ?(burst = 64) ?(bulk_reserve_percent = 25)
    ~now () =
  if rate_per_sec < 0 then invalid_arg "Admission.create: negative rate";
  if burst <= 0 then invalid_arg "Admission.create: burst must be positive";
  let burst_units = Int64.mul (Int64.of_int burst) unit_ in
  let reserve_units =
    Int64.div
      (Int64.mul burst_units (Int64.of_int (max 0 (min 100 bulk_reserve_percent))))
      100L
  in
  {
    rate_per_sec;
    burst_units;
    reserve_units;
    now;
    tokens = burst_units;  (* start full: no artificial cold-start sheds *)
    last = now ();
    admitted = Array.make 3 0;
    shed = Array.make 3 0;
  }

(* tokens += dt_ns * rate / 1e9, exactly, capped at burst. The product
   [dt * rate] fits int64 for any dt below ~92 s of simulated time at
   10^8 tokens/s; longer gaps saturate to a full bucket first. *)
let refill t =
  let now = t.now () in
  let dt = Int64.max 0L (Int64.sub now t.last) in
  t.last <- now;
  if t.rate_per_sec > 0 && Int64.compare dt 0L > 0 then begin
    let rate = Int64.of_int t.rate_per_sec in
    let add =
      if Int64.compare dt (Int64.div t.burst_units rate) >= 0 then t.burst_units
      else Int64.mul dt rate
    in
    t.tokens <- Int64.min t.burst_units (Int64.add t.tokens add)
  end

let admit t klass =
  refill t;
  let ok =
    match klass with
    | Control -> true
    | Interactive -> Int64.compare t.tokens unit_ >= 0
    | Bulk -> Int64.compare (Int64.sub t.tokens unit_) t.reserve_units >= 0
  in
  if ok then begin
    (* Control never goes below empty: it is exempt, not a debtor. *)
    t.tokens <- Int64.max 0L (Int64.sub t.tokens unit_);
    t.admitted.(klass_index klass) <- t.admitted.(klass_index klass) + 1;
    Pressure.Accepted
  end
  else begin
    t.shed.(klass_index klass) <- t.shed.(klass_index klass) + 1;
    Pressure.Backpressure Pressure.Admission
  end

let tokens t =
  refill t;
  Int64.to_int (Int64.div t.tokens unit_)

let shed_of t klass = t.shed.(klass_index klass)
let admitted_total t = Array.fold_left ( + ) 0 t.admitted
let shed_total t = Array.fold_left ( + ) 0 t.shed
