type report = {
  sname : string;
  vtime : float;
  events_fired : int;
  pending : int;
  finished : bool;
  violations : string list;
  samples : (float * (string * int) list) list;
  flights : (string * string list) list;
  flight_cap : int;
  verdicts : (string * int * int) list;
  drops : (string * int) list;
}

let pp_report ppf r =
  Format.fprintf ppf "%s: %s at t=%.2fs, %d events, %d pending%s%s%s%s" r.sname
    (if r.finished then "finished" else "DID NOT FINISH")
    r.vtime r.events_fired r.pending
    (match r.violations with
    | [] -> ""
    | vs -> Format.asprintf ", violations: %s" (String.concat "; " vs))
    (match r.flights with
    | [] -> ""
    | fs ->
        Format.asprintf ", %d/%d flight dump%s" (List.length fs) r.flight_cap
          (if List.length fs = 1 then "" else "s"))
    (match r.verdicts with
    | [] -> ""
    | vs ->
        Format.asprintf ", monitors: %s"
          (String.concat " "
             (List.map
                (fun (sub, checked, violated) ->
                  Printf.sprintf "%s=%d/%d" sub (checked - violated) checked
                  ^ if violated > 0 then "!" else "")
                vs)))
    (match List.filter (fun (_, n) -> n > 0) r.drops with
    | [] -> ""
    | ds ->
        Format.asprintf ", dropped: %s"
          (String.concat " "
             (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) ds)))

let ok r = r.finished && r.violations = [] && r.pending = 0

(* What the soak loop needs from whatever is advancing virtual time — a
   single engine or a whole shard group. *)
type driver = {
  d_now : unit -> float;
  d_run : until:float -> unit;
  d_events : unit -> int;
  d_pending : unit -> int;
}

let engine_driver engine =
  { d_now = (fun () -> Engine.now engine);
    d_run = (fun ~until -> Engine.run ~until engine);
    d_events = (fun () -> Engine.events_fired engine);
    d_pending = (fun () -> Engine.pending engine) }

let shard_driver shard =
  { d_now = (fun () -> Shard.now shard);
    d_run = (fun ~until -> Shard.run ~until shard);
    d_events = (fun () -> Shard.events_fired shard);
    d_pending = (fun () -> Shard.pending shard) }

let run_driver ?(step = 0.5) ?(until = 120.) ?(invariant = fun () -> None)
    ?(quiesce = true) ?sample ?(sample_every = 1) ?tracer ?(flight_n = 32)
    ?(flight_cap = 8) ?(verdicts = fun () -> [])
    ?(telemetry = []) ?(on_slice = fun (_ : float) -> ())
    ?(drops = fun () -> []) ~name ~driver ~finished () =
  let violations = ref [] in
  let flights = ref [] in
  (* Flight recorder: at every distinct violation (up to [flight_cap] of
     them), freeze the last spans the tracer still holds — preferring
     those on a track the violation message names, so each dump is about
     the offending connection. *)
  let capture_flight msg =
    match tracer with
    | None -> ()
    | Some tr when List.length !flights < flight_cap ->
        let recent = Tracer.last tr (8 * flight_n) in
        let touching =
          List.filter
            (fun s ->
              let track = s.Tracer.sp_track in
              let tlen = String.length track and mlen = String.length msg in
              tlen > 0 && tlen <= mlen
              && (let found = ref false in
                  for i = 0 to mlen - tlen do
                    if String.sub msg i tlen = track then found := true
                  done;
                  !found))
            recent
        in
        let chosen = if touching = [] then recent else touching in
        let n = List.length chosen in
        let chosen =
          if n <= flight_n then chosen
          else List.filteri (fun i _ -> i >= n - flight_n) chosen
        in
        flights := (msg, List.map Tracer.span_to_string chosen) :: !flights
    | Some _ -> ()
  in
  let record msg =
    if not (List.mem msg !violations) then begin
      capture_flight msg;
      violations := msg :: !violations
    end
  in
  let samples = ref [] in
  let slices = ref 0 in
  (* [Engine.pending] is O(1), so every slice gets a pending sample —
     the leak telltale — with the caller's snapshot merged in. *)
  let take_sample () =
    if !slices mod sample_every = 0 then begin
      let extra = match sample with None -> [] | Some f -> f () in
      samples :=
        (driver.d_now (), ("pending", driver.d_pending ()) :: extra)
        :: !samples
    end
  in
  (* Keep driving through violations: a soak that stops at the first one
     hides every later, possibly distinct, failure — each distinct
     violation is recorded (and flight-dumped) as it appears. *)
  (* Telemetry ticks at every slice boundary in virtual time: the ring
     decides (via its interval) whether the instant becomes a sample, so
     the series timestamps are slice boundaries — identical whatever is
     driving (engine or shard group). *)
  let boundary () =
    let now = driver.d_now () in
    List.iter (fun t -> Telemetry.tick t ~now) telemetry;
    on_slice now
  in
  let rec drive () =
    if (not (finished ())) && driver.d_now () < until then begin
      driver.d_run ~until:(driver.d_now () +. step);
      incr slices;
      take_sample ();
      boundary ();
      (match invariant () with None -> () | Some msg -> record msg);
      drive ()
    end
  in
  drive ();
  let fin = finished () in
  let vtime = driver.d_now () in
  (* Let a finished stack's remaining timers (TIME_WAIT, idle timeouts,
     straggler acks) expire: a hardened stack must quiesce, not tick
     forever. Cap the drain so a livelocked stack still reports. *)
  if quiesce && fin then begin
    driver.d_run ~until:(vtime +. until);
    boundary ()
  end;
  (* A violation the invariant hook surfaced only during the quiesce
     drain would otherwise be lost — poll it once more, then freeze the
     monitor verdicts into the report. *)
  (match invariant () with None -> () | Some msg -> record msg);
  (* Lossy-ring accounting: a clean report must say when its own
     observability was incomplete. *)
  let ring_drops =
    (match tracer with
    | Some tr -> [ ("tracer", Tracer.dropped tr) ]
    | None -> [])
    @ List.concat_map
        (fun t -> [ ("telemetry:" ^ Telemetry.label t, Telemetry.dropped t) ])
        telemetry
  in
  { sname = name;
    vtime;
    events_fired = driver.d_events ();
    pending = driver.d_pending ();
    finished = fin;
    violations = List.rev !violations;
    samples = List.rev !samples;
    flights = List.rev !flights;
    flight_cap;
    verdicts = verdicts ();
    drops = ring_drops @ drops () }

let run ?step ?until ?invariant ?quiesce ?sample ?sample_every ?tracer
    ?flight_n ?flight_cap ?verdicts ?telemetry ?on_slice ?drops ~name
    ~engine ~finished () =
  run_driver ?step ?until ?invariant ?quiesce ?sample ?sample_every ?tracer
    ?flight_n ?flight_cap ?verdicts ?telemetry ?on_slice ?drops ~name
    ~driver:(engine_driver engine) ~finished ()

let reproducible scenario ~seed =
  let a = scenario seed in
  let b = scenario seed in
  a = b
