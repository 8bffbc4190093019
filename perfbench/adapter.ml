(* Every call the benchmark makes into the program lives in this file,
   so a change to a library signature is a one-file edit here. The
   benchmark drives the stack only through public entry points
   (Sim.Engine, Sim.Channel, Transport.Fabric / Host / Tunnel /
   Tcp_secure, Datalink.Stack, Sublayer.Link) and reads counts from the
   existing Stats / Alloc / Tracer / Monitor snapshots. It never
   composes or wraps [Machine.S] modules: its timing taps sit on the
   [Host.factory] endpoint closures, on a pass-through [Sublayer.Link],
   and on the transmit / deliver closures of [Datalink.Stack] endpoints.

   Everything returned to the rest of the benchmark is plain data. *)

type shape =
  | Fabric of {
      hosts : int;
      flows : int;
      bytes : int;
      mean_gap : float; (* mean Poisson launch gap, simulated s; 0 = all at once *)
      loss : float;
      delay : float;
      bandwidth : float option; (* per-host ingress rate, bytes/s *)
      monitors : bool;
    }
  | Tunnel of {
      flows : int;
      bytes : int;
      delay : float;
      mean_gap : float;
    }
  | Datalink of {
      frames : int;
      mean_gap : float;
      loss : float;
      bandwidth : float; (* bit channel rate, bytes/s *)
      min_size : int; (* payload sizes are uniform in [min_size, max_size] *)
      max_size : int;
    }

type facts = {
  attempted : int; (* flows (or frames) the run tried to deliver *)
  failed : int;
  failures : string list; (* the first few reasons *)
  delivered : int; (* payload bytes delivered exactly *)
  fct : float array; (* completion time of every exact unit, simulated s *)
  makespan : float; (* first launch -> last completion, simulated s *)
  events : int; (* engine events fired *)
  checked : int; (* monitor crossings checked *)
  live_hwm : int; (* engine live-timer high-water mark *)
  wall_ns : int; (* host time of the timed section *)
  minor_words : float; (* minor words allocated in the timed section *)
  counts : (string * float) list; (* traced runs: raw per-layer counts *)
  vtimes : (string * float array) list; (* traced: virtual durations, s *)
}

type instance = {
  run : unit -> facts;
  micro : unit -> (string * float) list; (* ns per KB of public calls *)
}

let max_failures_kept = 5

(* ---- inputs, all drawn from the workload seed ---- *)

let random_string rng n = String.init n (fun _ -> Char.chr (Random.State.int rng 256))

(* Start times of an open-loop Poisson source: exponential gaps with
   mean [mean_gap], the first one included; all 0 when [mean_gap = 0]. *)
let arrivals rng n mean_gap =
  let t = ref 0. in
  Array.init n (fun _ ->
      t := !t -. (mean_gap *. Float.log (1. -. Random.State.float rng 1.));
      !t)

(* ---- measurement ---- *)

(* Host ns per KB of [f] over [(input, bytes)] pairs, cycling through
   the inputs until [budget] bytes have passed; the median of five such
   rounds. *)
let ns_per_kb ~budget f inputs =
  match inputs with
  | [] -> 0.
  | _ ->
      let take = ref [] and total = ref 0 and rest = ref [] in
      while !total < budget do
        (match !rest with [] -> rest := inputs | _ -> ());
        match !rest with
        | ((_, n) as x) :: tl ->
            take := x :: !take;
            total := !total + n;
            rest := tl
        | [] -> ()
      done;
      let round () =
        let t0 = Spans.now_ns () in
        List.iter (fun (x, _) -> ignore (Sys.opaque_identity (f x))) !take;
        float_of_int (Spans.now_ns () - t0) /. (float_of_int !total /. 1000.)
      in
      List.nth (List.sort Float.compare (List.init 5 (fun _ -> round ()))) 2

(* Virtual-time spans of interest, drained from the Sim.Tracer ring
   whenever it is half full (checked at every slice), so the bounded ring
   never has to hold a whole run. Spans evicted before a drain are
   counted in [lost]. *)
type vcollect = {
  tracer : Sim.Tracer.t;
  mutable seen : int;
  mutable lost : int;
  want : ((string * string) * float list ref) list; (* (sublayer, name) *)
}

let vdrain ?(force = false) v =
  let recorded = Sim.Tracer.recorded v.tracer in
  let fresh = recorded - v.seen in
  if fresh > 0 && (force || 2 * fresh >= Sim.Tracer.capacity v.tracer) then begin
    let kept = min fresh (Sim.Tracer.length v.tracer) in
    v.lost <- v.lost + (fresh - kept);
    List.iter
      (fun sp ->
        match List.assoc_opt (sp.Sim.Tracer.sp_sublayer, sp.Sim.Tracer.sp_name) v.want with
        | Some acc when Float.is_finite sp.Sim.Tracer.sp_end ->
            acc := Sim.Tracer.duration sp :: !acc
        | _ -> ())
      (Sim.Tracer.last v.tracer kept);
    v.seen <- recorded
  end

(* The observability a traced run attaches: one shared stats registry,
   a telemetry instance (hosts then install Sublayer.Alloc cells) and,
   where virtual-time spans are wanted, a tracer. *)
type obs = {
  stats : Sublayer.Stats.registry option;
  telemetry : Sim.Telemetry.t option;
  spans_of : vcollect option;
}

let obs ~traced ~want =
  if not traced then { stats = None; telemetry = None; spans_of = None }
  else
    { stats = Some (Sublayer.Stats.create ~label:"perfbench" ());
      telemetry = Some (Sim.Telemetry.create ~label:"perfbench" ());
      spans_of =
        (match want with
        | [] -> None
        | _ ->
            Some
              { tracer = Sim.Tracer.create ~capacity:262144 (); seen = 0; lost = 0;
                want = List.map (fun k -> (k, ref [])) want }) }

let tracer o = Option.map (fun v -> v.tracer) o.spans_of

(* Counts every traced run reports, plus the workload's own. *)
let traced_counts o engine ~copied own =
  let stats =
    match o.stats with
    | None -> []
    | Some reg ->
        List.map (fun (k, v) -> ("stat:" ^ k, float_of_int v)) (Sublayer.Stats.snapshot reg)
  in
  let lost = match o.spans_of with Some v -> float_of_int v.lost | None -> 0. in
  [ ("engine.compactions", float_of_int (Sim.Engine.compactions engine));
    ("copied_bytes", float_of_int copied); ("tracer.lost", lost) ]
  @ own @ stats

let vtimes o =
  match o.spans_of with
  | None -> []
  | Some v ->
      vdrain ~force:true v;
      List.map
        (fun ((sub, name), acc) -> (sub ^ "." ^ name, Array.of_list (List.rev !acc)))
        v.want

(* Slice the engine forward until [finished], reporting a deadlock the
   first slice the queue runs dry with work left. Returns the live-timer
   high-water mark sampled at slice ends. (Sim.Workload launches at a
   fixed spacing, and its soak waits a deadlock out to the horizon.) *)
let drive engine ~until ~finished ~on_slice =
  let hwm = ref 0 in
  let rec go () =
    if finished () then Ok !hwm
    else if Sim.Engine.pending engine = 0 then
      Error
        (Printf.sprintf "deadlock: no pending events at t=%.3fs with work unfinished"
           (Sim.Engine.now engine))
    else if Sim.Engine.now engine >= until then
      Error (Printf.sprintf "not finished by t=%.0fs" until)
    else begin
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.1) engine;
      hwm := max !hwm (Sim.Engine.live engine);
      on_slice ();
      go ()
    end
  in
  go ()

type timed = {
  outcome : (int, string) result; (* live-timer hwm, or why it stopped *)
  wall : int;
  words : float;
  copied : int;
}

(* The timed section: the engine driven to completion inside the [run]
   span. Host-clock spans and Alloc attribution (a process-global switch)
   are on only inside a traced section, and always switched off again. *)
let timed ~traced spans o engine ~until ~finished =
  let on_slice () =
    Option.iter (Spans.wrap spans Spans.bookkeeping (-1) (fun v -> vdrain v)) o.spans_of
  in
  let section () =
    let c0 = Bitkit.Slice.copied_bytes () in
    let w0 = Gc.minor_words () in
    let t0 = Spans.now_ns () in
    let outcome =
      Spans.wrap spans Spans.run (-1) (fun () -> drive engine ~until ~finished ~on_slice) ()
    in
    let t1 = Spans.now_ns () in
    let w1 = Gc.minor_words () in
    { outcome; wall = t1 - t0; words = w1 -. w0; copied = Bitkit.Slice.copied_bytes () - c0 }
  in
  if not traced then section ()
  else begin
    spans.Spans.on <- true;
    Sublayer.Alloc.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        spans.Spans.on <- false;
        Sublayer.Alloc.set_enabled false)
      section
  end

(* Per-unit verdicts plus run-level problems -> the failure count (at
   most one per unit) and the first few reasons. *)
let tally n verdict extra =
  let failed = ref 0 and reasons = ref [] in
  let note r =
    incr failed;
    if List.length !reasons < max_failures_kept then reasons := r :: !reasons
  in
  for i = 0 to n - 1 do
    Option.iter note (verdict i)
  done;
  List.iter note extra;
  (min n !failed, List.rev !reasons)

(* ---- per-flow bookkeeping shared by the transport workloads ---- *)

type book = {
  engine : Sim.Engine.t;
  launch_at : float array; (* simulated time the flow was started *)
  done_at : float array; (* receiver's Peer_closed, NaN until then *)
  mutable launching : int; (* flow whose client is being created, or -1 *)
  by_ports : (int * int, int) Hashtbl.t; (* client (local, remote) -> flow *)
  names : (string, int) Hashtbl.t; (* endpoint name -> flow *)
  mutable unmatched : int; (* endpoints whose flow could not be told *)
  wire_bytes : int array; (* per level: bytes handed to the link *)
  mutable sizes : int list; (* wire segment sizes, newest first *)
  mutable keep_sizes : int; (* how many more sizes to keep *)
}

let book engine n =
  { engine; launch_at = Array.make n Float.nan; done_at = Array.make n Float.nan;
    launching = -1; by_ports = Hashtbl.create (2 * n + 1);
    names = Hashtbl.create (2 * n + 1); unmatched = 0; wire_bytes = Array.make 2 0;
    sizes = []; keep_sizes = 0 }

let launch b i f =
  b.launch_at.(i) <- Sim.Engine.now b.engine;
  b.launching <- i;
  Fun.protect ~finally:(fun () -> b.launching <- -1) f

(* The open-loop generator: arrival [i] runs [f i] at [now + offsets.(i)]
   (offsets ascending) and schedules arrival [i + 1], so the event queue
   holds one pending arrival rather than all of them. *)
let generate engine offsets f =
  let base = Sim.Engine.now engine in
  let rec arrive i () =
    if i + 1 < Array.length offsets then
      ignore (Sim.Engine.at engine ~time:(base +. offsets.(i + 1)) (arrive (i + 1)));
    f i
  in
  if Array.length offsets > 0 then ignore (Sim.Engine.at engine ~time:(base +. offsets.(0)) (arrive 0))

let schedule_launches engine b offsets f = generate engine offsets (fun i -> launch b i (fun () -> f i))

(* [done_ i] must stay true once true, so one pointer sweeps the units
   once over the whole run. *)
let all_done n done_ =
  let upto = ref 0 in
  fun () ->
    while !upto < n && done_ !upto do
      incr upto
    done;
    !upto = n

let fct_of b ok =
  let acc = ref [] in
  for i = Array.length b.done_at - 1 downto 0 do
    if ok i then acc := (b.done_at.(i) -. b.launch_at.(i)) :: !acc
  done;
  Array.of_list !acc

let makespan b =
  let lo = Array.fold_left Float.min Float.infinity b.launch_at in
  let hi = Array.fold_left Float.max Float.neg_infinity b.done_at in
  if Float.is_finite lo && Float.is_finite hi then hi -. lo else Float.nan

(* The pass-through [Host.factory]: the base factory's endpoint with
   every entry point and both callbacks timed, and the receiving
   endpoint's [`Peer_closed] indication taken as the flow's completion
   — the virtual time at which the receiver holds the whole stream. The
   client endpoint is the one created while [launch] runs; the server is
   the endpoint whose port pair mirrors a client's. *)
let tap spans ~level b (base : Transport.Host.factory) =
  let k_rx = Spans.rx level and k_wire = Spans.wire level
  and k_app = Spans.app level and k_dlv = Spans.deliver level in
  let make ?ins engine ~name cfg ~local_port ~remote_port ~transmit ~events =
    let flow, server =
      if b.launching >= 0 then begin
        if Hashtbl.mem b.by_ports (local_port, remote_port) then b.unmatched <- b.unmatched + 1;
        Hashtbl.replace b.by_ports (local_port, remote_port) b.launching;
        (b.launching, false)
      end
      else
        match Hashtbl.find_opt b.by_ports (remote_port, local_port) with
        | Some f -> (f, true)
        | None ->
            b.unmatched <- b.unmatched + 1;
            (-1, false)
    in
    if flow >= 0 then Hashtbl.replace b.names name flow;
    let transmit s =
      let n = Bitkit.Slice.length s in
      b.wire_bytes.(level) <- b.wire_bytes.(level) + n;
      if b.keep_sizes > 0 then begin
        b.keep_sizes <- b.keep_sizes - 1;
        b.sizes <- n :: b.sizes
      end;
      Spans.wrap spans k_wire flow transmit s
    in
    let events e =
      (match e with
      | `Peer_closed when server && Float.is_nan b.done_at.(flow) ->
          b.done_at.(flow) <- Sim.Engine.now b.engine
      | _ -> ());
      Spans.wrap spans k_dlv flow events e
    in
    let ep =
      base.Transport.Host.make ?ins engine ~name cfg ~local_port ~remote_port ~transmit ~events
    in
    let app f x = Spans.wrap spans k_app flow f x in
    { Transport.Host.ep_from_wire = (fun s -> Spans.wrap spans k_rx flow ep.ep_from_wire s);
      ep_connect = app ep.ep_connect;
      ep_listen = app ep.ep_listen;
      ep_write = app ep.ep_write;
      ep_read = app ep.ep_read;
      ep_close = app ep.ep_close;
      ep_abort = ep.ep_abort;
      ep_finished = ep.ep_finished }
  in
  { base with Transport.Host.make }

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  n > 0 && at 0

(* Monitor violations, attributed to flows through the endpoint names
   the violation messages carry. *)
let caught_by_monitors b = function
  | None -> ([], [])
  | Some m ->
      List.fold_left
        (fun (caught, other) v ->
          match
            Hashtbl.fold (fun name f hit -> if contains v name then Some f else hit) b.names None
          with
          | Some f -> ((f, v) :: caught, other)
          | None -> (caught, ("monitor: " ^ v) :: other))
        ([], []) (Monitor.Runtime.violations m)

let run_problems (t : timed) (bs : book list) =
  (match t.outcome with Ok _ -> [] | Error e -> [ e ])
  @
  match List.fold_left (fun acc b -> acc + b.unmatched) 0 bs with
  | 0 -> []
  | n -> [ Printf.sprintf "%d endpoints could not be matched to a flow" n ]

(* ---- fabric / bulk ---- *)

let fabric ~seed ~traced spans ~hosts ~flows ~bytes ~mean_gap ~loss ~delay ~bandwidth ~monitors =
  let engine = Sim.Engine.create ~seed () in
  let offsets = arrivals (Random.State.make [| seed |]) flows mean_gap in
  let o = obs ~traced ~want:[ ("rd", "flight"); ("osr", "buffer") ] in
  let mon = if monitors then Some (Monitor.Runtime.create ~label:"perfbench" ()) else None in
  let b = book engine flows in
  let channel = { (Sim.Channel.lossy loss) with Sim.Channel.delay; bandwidth } in
  let fabric =
    Transport.Fabric.create engine ~hosts
      ~factory:(tap spans ~level:0 b Transport.Host.sublayered)
      ?stats:o.stats ?tracer:(tracer o) ?monitors:mon ?telemetry:o.telemetry ~seed ~channel
      ~flows ~bytes ()
  in
  let ops = Transport.Fabric.ops fabric in
  let run () =
    schedule_launches engine b offsets ops.Sim.Workload.launch;
    let t =
      timed ~traced spans o engine ~until:900.
        ~finished:
          (all_done flows (fun i -> ops.flow_finished i && Float.is_finite b.done_at.(i)))
    in
    let caught, other = caught_by_monitors b mon in
    let verdict i =
      if not (ops.flow_finished i) then Some (Printf.sprintf "flow %d did not finish" i)
      else if not (ops.flow_exact i) then Some (Printf.sprintf "flow %d not exact" i)
      else if Float.is_nan b.done_at.(i) then
        Some (Printf.sprintf "flow %d finished without a Peer_closed indication" i)
      else
        Option.map (Printf.sprintf "flow %d caught by a monitor: %s" i) (List.assoc_opt i caught)
    in
    let failed, failures = tally flows verdict (run_problems t [ b ] @ other) in
    let fct = fct_of b (fun i -> verdict i = None) in
    { attempted = flows; failed; failures; delivered = Array.length fct * bytes; fct;
      makespan = makespan b; events = Sim.Engine.events_fired engine;
      checked = Option.fold ~none:0 ~some:Monitor.Runtime.checked mon;
      live_hwm = Result.value t.outcome ~default:0; wall_ns = t.wall; minor_words = t.words;
      counts =
        (if traced then
           traced_counts o engine ~copied:t.copied
             [ ("l0.wire_bytes", float_of_int b.wire_bytes.(0)); ("flows", float_of_int flows) ]
         else []);
      vtimes = vtimes o }
  in
  { run; micro = (fun () -> []) }

(* ---- tunnel ---- *)

let tunnel ~seed ~traced spans ~flows ~bytes ~delay ~mean_gap =
  let open Transport in
  let engine = Sim.Engine.create ~seed () in
  let rng = Random.State.make [| seed |] in
  let data = Array.init flows (fun _ -> random_string rng bytes) in
  let offsets = arrivals rng flows mean_gap in
  let o = obs ~traced ~want:[ ("rd", "flight"); ("l1:rd", "flight"); ("osr", "buffer") ] in
  let outer = book engine 1 and inner = book engine flows in
  if traced then outer.keep_sizes <- 4096;
  let factory = tap spans ~level:0 outer (Tcp_secure.factory ~key:Tcp_secure.demo_key) in
  let oa, ob =
    Host.pair engine ~factory_a:factory ~factory_b:factory ?stats_a:o.stats ?stats_b:o.stats
      ?tracer:(tracer o) ?telemetry:o.telemetry
      { (Sim.Channel.lossy 0.) with Sim.Channel.delay }
  in
  (* The outer handshake is part of set-up. *)
  Host.listen ob ~port:443;
  let osrv = ref None in
  Host.on_accept ob (fun c -> osrv := Some c);
  let ocli = launch outer 0 (fun () -> Host.connect oa ~remote_port:443 ()) in
  while !osrv = None && Sim.Engine.now engine < 60. do
    Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.01) engine
  done;
  let ocsrv = match !osrv with Some c -> c | None -> failwith "tunnel: outer handshake failed" in
  let tun_a = Tunnel.create ~id:"tun-a" ocli and tun_b = Tunnel.create ~id:"tun-b" ocsrv in
  (* A pass-through link between each inner host and its tunnel end. *)
  let passthrough tun =
    let below = Tunnel.link tun in
    let lk =
      Sublayer.Link.make ~id:(Sublayer.Link.id below) ?mtu:(Sublayer.Link.mtu below)
        ~transmit:(Spans.wrap spans Spans.tunnel_tx (-1) (Sublayer.Link.transmit below))
        ()
    in
    Sublayer.Link.attach below (Spans.wrap spans Spans.tunnel_rx (-1) (Sublayer.Link.deliver lk));
    Sublayer.Link.on_death below (fun () -> Sublayer.Link.kill lk);
    lk
  in
  let la = passthrough tun_a and lb = passthrough tun_b in
  let ins =
    Sublayer.Instrument.v ?stats:o.stats ?tracer:(tracer o) ?telemetry:o.telemetry ~level:1 ()
  in
  let ifactory = tap spans ~level:1 inner Host.sublayered in
  let ia = Host.create engine ~factory:ifactory ~ins ~name:"iA" ~link:la () in
  let ib = Host.create engine ~factory:ifactory ~ins ~name:"iB" ~link:lb () in
  let port i = 80 + i in
  let servers = Array.make flows None and clients = Array.make flows None in
  for i = 0 to flows - 1 do
    Host.listen ib ~port:(port i)
  done;
  Host.on_accept ib (fun c ->
      servers.(Host.local_port c - port 0) <- Some c;
      Host.on_event c (function `Peer_closed -> Host.close c | _ -> ()));
  let finished i =
    match (clients.(i), servers.(i)) with
    | Some c, Some s -> Host.peer_closed s && Host.finished c
    | _ -> false
  in
  let run () =
    schedule_launches engine inner offsets (fun i ->
        let c = Host.connect ia ~remote_port:(port i) () in
        clients.(i) <- Some c;
        Host.write c data.(i);
        Host.close c);
    let t =
      timed ~traced spans o engine ~until:900. ~finished:(all_done flows finished)
    in
    (* Records still in flight when the last inner flow completed (acks,
       FINs) are let through, outside the timed section, before the
       outer level is checked. *)
    let settled () =
      Tunnel.frames_out tun_a = Tunnel.frames_in tun_b
      && Tunnel.frames_out tun_b = Tunnel.frames_in tun_a
    in
    let events = Sim.Engine.events_fired engine and wire_bytes = outer.wire_bytes.(0) in
    let frames =
      Tunnel.frames_out tun_a + Tunnel.frames_out tun_b + Tunnel.frames_in tun_a
      + Tunnel.frames_in tun_b
    in
    let stop = Sim.Engine.now engine +. 60. in
    while (not (settled ())) && Sim.Engine.pending engine > 0 && Sim.Engine.now engine < stop do
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.1) engine
    done;
    let verdict i =
      if i = flows then
        (* The outer connection: exact when every record framed on one
           side was parsed on the other, no link dropped anything, and
           the connection is still up. *)
        let dropped l = (Sublayer.Link.stats l).Sublayer.Link.dropped in
        List.find_map
          (fun (ok, what) -> if ok then None else Some ("outer connection: " ^ what))
          [ (settled (), "records lost");
            ( dropped (Tunnel.link tun_a) + dropped (Tunnel.link tun_b) + dropped la
              + dropped lb = 0,
              "a link dropped frames" );
            ( not (List.exists (fun c -> Host.was_reset c || Host.aborted c) [ ocli; ocsrv ]),
              "torn down" ) ]
      else if not (finished i) then Some (Printf.sprintf "inner flow %d did not finish" i)
      else if Option.map Host.received servers.(i) <> Some data.(i) then
        Some (Printf.sprintf "inner flow %d not exact" i)
      else if Float.is_nan inner.done_at.(i) then
        Some (Printf.sprintf "inner flow %d finished without a Peer_closed indication" i)
      else None
    in
    (* Units: the inner flows, then the outer connection. *)
    let failed, failures = tally (flows + 1) verdict (run_problems t [ outer; inner ]) in
    let fct = fct_of inner (fun i -> verdict i = None) in
    { attempted = flows + 1; failed; failures; delivered = Array.length fct * bytes; fct;
      makespan = makespan inner; events; checked = 0;
      live_hwm = Result.value t.outcome ~default:0; wall_ns = t.wall; minor_words = t.words;
      counts =
        (if traced then
           traced_counts o engine ~copied:t.copied
             [ ("l0.wire_bytes", float_of_int wire_bytes); ("tunnel.frames", float_of_int frames);
               ("flows", float_of_int flows) ]
         else []);
      vtimes = vtimes o }
  in
  (* ChaCha20 and SipHash timed through their public entry points on the
     sizes of the segments the outer (Rec-sealed) connection carried. *)
  let micro () =
    let rng = Random.State.make [| seed; 1 |] in
    let inputs = List.map (fun n -> (random_string rng n, n)) outer.sizes in
    let key = String.make 32 'k' and nonce = String.make 12 'n' and skey = String.make 16 's' in
    [ ("chacha20", ns_per_kb ~budget:(1 lsl 18) (Bitkit.Chacha20.encrypt ~key ~nonce) inputs);
      ("siphash", ns_per_kb ~budget:(1 lsl 18) (Bitkit.Siphash.hash ~key:skey) inputs) ]
  in
  { run; micro }

(* ---- datalink ---- *)

let datalink ~seed ~traced spans ~frames ~mean_gap ~loss ~bandwidth ~min_size ~max_size =
  let module Stack = Datalink.Stack in
  let engine = Sim.Engine.create ~seed () in
  let rng = Random.State.make [| seed |] in
  let payload =
    Array.init frames (fun _ ->
        random_string rng (min_size + Random.State.int rng (max_size - min_size + 1)))
  in
  let offsets = arrivals rng frames mean_gap in
  let o = obs ~traced ~want:[] in
  let ins = Sublayer.Instrument.v ?stats:o.stats ?telemetry:o.telemetry () in
  let wire_bits = ref 0 in
  let due = Array.make frames Float.nan and got = Array.make frames Float.nan in
  let delivered = ref 0 and misordered = ref [] and stray = ref 0 in
  let channel deliver =
    Sim.Channel.create engine
      { (Sim.Channel.lossy loss) with Sim.Channel.bandwidth = Some bandwidth }
      ~size:(fun bits -> (Bitkit.Bitseq.length bits + 7) / 8)
      ~corrupt:Sim.Channel.corrupt_bits ~deliver ()
  in
  let a_ep = ref None and b_ep = ref None in
  let from_wire r bits =
    Option.iter (fun ep -> Spans.wrap spans Spans.dl_rx (-1) (Stack.from_wire ep) bits) !r
  in
  let a_to_b = channel (from_wire b_ep) and b_to_a = channel (from_wire a_ep) in
  let transmit ch bits =
    wire_bits := !wire_bits + Bitkit.Bitseq.length bits;
    Spans.wrap spans Spans.dl_wire (-1) (Sim.Channel.send ch) bits
  in
  (* In order and exact: the k-th delivery must be the k-th payload. *)
  let on_delivery p =
    let k = !delivered in
    incr delivered;
    if k < frames && String.equal p payload.(k) then got.(k) <- Sim.Engine.now engine
    else if List.length !misordered < max_failures_kept then
      misordered := Printf.sprintf "delivery %d is not frame %d" k k :: !misordered
  in
  let a =
    Stack.endpoint engine ~ins ~name:"A" Stack.default_spec ~transmit:(transmit a_to_b)
      ~deliver:(fun _ -> incr stray)
  in
  let b =
    Stack.endpoint engine ~ins ~name:"B" Stack.default_spec ~transmit:(transmit b_to_a)
      ~deliver:(Spans.wrap spans Spans.dl_deliver (-1) on_delivery)
  in
  a_ep := Some a;
  b_ep := Some b;
  let run () =
    let base = Sim.Engine.now engine in
    generate engine offsets (fun i ->
        due.(i) <- Sim.Engine.now engine;
        Spans.wrap spans Spans.dl_send i (Stack.send a) payload.(i));
    let t =
      timed ~traced spans o engine
        ~until:(base +. offsets.(frames - 1) +. 600.)
        ~finished:(fun () -> !delivered >= frames)
    in
    let verdict i =
      if Float.is_nan got.(i) then Some (Printf.sprintf "frame %d not delivered in order" i)
      else None
    in
    let extra =
      run_problems t []
      @ (if Stack.gave_up a || Stack.gave_up b then [ "an ARQ sender gave up" ] else [])
      @ if !stray > 0 then [ Printf.sprintf "%d payloads delivered at the sender" !stray ] else []
    in
    let failed, failures = tally frames verdict extra in
    let ok = List.filter (fun i -> verdict i = None) (List.init frames Fun.id) in
    let arq = Stack.arq_stats a in
    { attempted = frames; failed;
      (* A misordered delivery already fails its frame; the note says why. *)
      failures = failures @ List.rev !misordered;
      delivered = List.fold_left (fun acc i -> acc + String.length payload.(i)) 0 ok;
      fct = Array.of_list (List.map (fun i -> got.(i) -. due.(i)) ok);
      makespan = List.fold_left (fun acc i -> Float.max acc got.(i)) base ok -. base;
      events = Sim.Engine.events_fired engine; checked = 0;
      live_hwm = Result.value t.outcome ~default:0; wall_ns = t.wall; minor_words = t.words;
      counts =
        (if traced then
           traced_counts o engine ~copied:t.copied
             [ ("datalink.wire_bits", float_of_int !wire_bits);
               ("datalink.retransmissions", float_of_int arq.Datalink.Arq.retransmissions);
               ("frames", float_of_int frames) ]
         else []);
      vtimes = [] }
  in
  (* CRC-32 and the HDLC stuffing codec timed through their public entry
     points on this run's payloads (the first 128 for the slow bit-level
     codec), per KB of payload. *)
  let micro () =
    let sized ?(n = frames) f =
      List.init (min n frames) (fun i -> (f payload.(i), String.length payload.(i)))
    in
    let crc = Bitkit.Crc.make Bitkit.Crc.crc32 in
    let scheme = Stuffing.Rule.hdlc in
    let bits = sized ~n:128 Bitkit.Bitseq.of_string in
    let coded = List.map (fun (b, n) -> (Stuffing.Fast.encode scheme b, n)) bits in
    [ ("crc32", ns_per_kb ~budget:(1 lsl 20) (Bitkit.Crc.digest crc) (sized Fun.id));
      ("stuff_encode", ns_per_kb ~budget:(1 lsl 16) (Stuffing.Fast.encode scheme) bits);
      ("stuff_decode", ns_per_kb ~budget:(1 lsl 16) (Stuffing.Fast.decode scheme) coded) ]
  in
  { run; micro }

let setup shape ~seed ~traced spans =
  match shape with
  | Fabric { hosts; flows; bytes; mean_gap; loss; delay; bandwidth; monitors } ->
      fabric ~seed ~traced spans ~hosts ~flows ~bytes ~mean_gap ~loss ~delay ~bandwidth ~monitors
  | Tunnel { flows; bytes; delay; mean_gap } ->
      tunnel ~seed ~traced spans ~flows ~bytes ~delay ~mean_gap
  | Datalink { frames; mean_gap; loss; bandwidth; min_size; max_size } ->
      datalink ~seed ~traced spans ~frames ~mean_gap ~loss ~bandwidth ~min_size ~max_size
