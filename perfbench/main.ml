(* perfbench: the repository benchmark.

     perfbench --workload fabric|bulk|tunnel|datalink [--seed N]
               [--seconds S] [--trace 0|1] [--out DIR]

   With --trace 0 the workload is set up and run repeatedly for S
   seconds with tracing off; the end-to-end metrics are medians over
   those iterations. With --trace 1 untraced and traced iterations
   alternate: the traced ones give the per-layer metrics and must repeat
   the untraced run's simulated results exactly. Every delivery is
   checked. The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}; the exit code is 1 when
   anything failed. README.md describes the workloads and the metrics. *)

(* The workloads. Sizes give one iteration about a second or two of host
   time, so a run holds several iterations. *)
let workloads =
  [ ( "fabric",
      Adapter.Fabric
        { hosts = 8; flows = 5000; bytes = 8_000; mean_gap = 0.005; loss = 0.01; delay = 0.02;
          bandwidth = Some 1e6; monitors = true } );
    ( "bulk",
      Adapter.Fabric
        { hosts = 2; flows = 16; bytes = 4 * 1024 * 1024; mean_gap = 0.; loss = 0.001;
          delay = 0.005; bandwidth = Some 1e7; monitors = false } );
    ( "tunnel",
      Adapter.Tunnel { flows = 8; bytes = 512 * 1024; delay = 0.01; mean_gap = 0.05 } );
    ( "datalink",
      Adapter.Datalink
        { frames = 4000; mean_gap = 0.1; loss = 0.02; bandwidth = 1e6; min_size = 64;
          max_size = 1024 } ) ]

let min_iterations = 3

(* ---- arguments ---- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload fabric|bulk|tunnel|datalink [--seed N] [--seconds S] \
     [--trace 0|1] [--out DIR]";
  exit 2

let parse argv =
  let workload = ref None and seed = ref 1 and seconds = ref 10. and trace = ref false
  and out = ref "perfbench/_out" in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match List.assoc_opt w workloads with
        | Some shape -> workload := Some (w, shape)
        | None ->
            Printf.eprintf "perfbench: unknown workload %S\n" w;
            usage ());
        go rest
    | "--seed" :: s :: rest ->
        seed := int_of s;
        go rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_int (int_of s);
        go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := t = "1";
        go rest
    | "--out" :: d :: rest ->
        out := d;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match !workload with None -> usage () | Some w -> (w, !seed, !seconds, !trace, !out)

(* ---- statistics ---- *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | l ->
      let a = Array.of_list l and n = List.length l in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, and how many samples lie above it. *)
let percentile a p =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then (Float.nan, 0)
  else begin
    let v = s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1))) in
    (v, Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 s)
  end

let div a b = if b > 0. then a /. b else 0.

(* ---- host speed ---- *)

(* Host speed drifts: on a shared virtual machine it changes by up to a
   fifth within seconds, and a slow phase can outlast a whole run. Every
   iteration is therefore bracketed by a fixed probe (stdlib hashing,
   allocation and sorting on a freshly compacted heap; no program code),
   and host times are reported scaled to a host on which the probe takes
   [reference_ns]. The unscaled medians are printed beside them. *)
let reference_ns = 100e6

let probe () =
  Gc.compact ();
  let t0 = Spans.now_ns () in
  let h = Hashtbl.create 16 in
  for i = 0 to 200_000 do
    Hashtbl.replace h (i * 7919 land 0xFFFF) (string_of_int i)
  done;
  let l = List.init 200_000 (fun i -> i * i mod 1000) in
  ignore (Sys.opaque_identity (List.fold_left ( + ) 0 (List.sort compare l)));
  let t1 = Spans.now_ns () in
  Gc.compact ();
  float_of_int (t1 - t0)

(* ---- host facts ---- *)

let host_facts ~workload ~seed =
  [ ("workload", workload); ("seed", string_of_int seed);
    ("cores", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version); ("profile", Build_info.profile);
    ("commit", Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT")) ]

(* ---- one iteration ---- *)

type iteration = {
  setup_s : float;
  facts : Adapter.facts;
  speed : float; (* reference_ns / probe time around the iteration *)
}

(* One iteration; a traced one also times the workload's public library
   calls once the run is over. *)
let iterate shape ~seed ~traced spans =
  let p0 = probe () in
  let t0 = Spans.now_ns () in
  let inst = Adapter.setup shape ~seed ~traced spans in
  let setup_s = float_of_int (Spans.now_ns () - t0) /. 1e9 in
  let facts = inst.Adapter.run () in
  let micro = if traced then inst.Adapter.micro () else [] in
  let p1 = probe () in
  ({ setup_s; facts; speed = reference_ns /. ((p0 +. p1) /. 2.) }, micro)

let totals its =
  ( List.fold_left (fun a (it : iteration) -> a + it.facts.attempted) 0 its,
    List.fold_left (fun a (it : iteration) -> a + it.facts.failed) 0 its )

(* The simulated outcome an iteration must repeat exactly: one seed gives
   one schedule, traced or not, on every iteration. *)
let same_sim (a : Adapter.facts) (b : Adapter.facts) =
  a.events = b.events && a.delivered = b.delivered && a.checked = b.checked && a.fct = b.fct
  && Float.equal a.makespan b.makespan

(* ---- metrics ---- *)

type metric = { name : string; value : float; unit_ : string; clock : string; note : string }

let metric ?(note = "") name value unit_ clock = { name; value; unit_; clock; note }

let end_to_end (its : iteration list) =
  let f0 = (List.hd its).facts in
  let kb (f : Adapter.facts) = float_of_int f.delivered /. 1e3 in
  let fct_ms = Array.map (fun s -> s *. 1000.) f0.fct in
  let n = Array.length fct_ms in
  let p50, _ = percentile fct_ms 0.5 in
  let p99, beyond = percentile fct_ms 0.99 in
  let tail =
    if beyond >= 10 then
      metric "sim_fct_p99_ms" p99 "ms" "simulated" ~note:(Printf.sprintf "n=%d, %d beyond" n beyond)
    else
      (* Too few samples for a p99: the slowest completion stands in. *)
      metric "sim_fct_p99_ms" (fst (percentile fct_ms 1.)) "ms" "simulated"
        ~note:(Printf.sprintf "n=%d: p99 unsupported, maximum shown" n)
  in
  let ms_per_mb it = float_of_int it.facts.wall_ns /. 1e6 /. (kb it.facts /. 1e3) in
  let med f = median (List.map f its) in
  let attempted, failed = totals its in
  [ metric "host_ms_per_MB"
      (med (fun it -> ms_per_mb it *. it.speed))
      "ms/MB" "host"
      ~note:(Printf.sprintf "median of %d; unscaled %.4g" (List.length its) (med ms_per_mb));
    metric "setup_s"
      (med (fun it -> it.setup_s *. it.speed))
      "s" "host"
      ~note:(Printf.sprintf "unscaled %.4g" (med (fun it -> it.setup_s)));
    metric "peak_heap_MB"
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6)
      "MB" "host";
    metric "minor_words_per_KB" (med (fun it -> it.facts.minor_words /. kb it.facts)) "words/KB"
      "count";
    metric "sim_goodput_KBps" (div (kb f0) f0.makespan) "KB/s" "simulated";
    metric "sim_fct_p50_ms" p50 "ms" "simulated" ~note:(Printf.sprintf "n=%d" n);
    tail;
    metric "failed_share"
      (div (float_of_int failed) (float_of_int attempted))
      "ratio" "count" ~note:"in the JSON line as failed / attempted" ]

(* Per-layer metrics of one traced iteration. A metric whose layer the
   workload does not exercise reads 0. *)
let per_layer (f : Adapter.facts) (s : Spans.summary) ~micro ~overhead_pct =
  let count k = Option.value ~default:0. (List.assoc_opt k f.counts) in
  let stat k = count ("stat:" ^ k) in
  let ms_at k p =
    match List.assoc_opt k f.vtimes with
    | None | Some [||] -> 0.
    | Some a -> 1000. *. fst (percentile a p)
  in
  let self k = float_of_int s.Spans.self_ns.(k) and n k = float_of_int s.Spans.count.(k) in
  let per_span k = div (self k) (n k) in
  let bytes = float_of_int f.delivered in
  let kb = bytes /. 1e3 and mb = bytes /. 1e6 in
  let flows = count "flows" and frames = count "frames" in
  let segs = stat "dm.segments_in" in
  let tunnel v = if count "tunnel.frames" > 0. then v else 0. in
  let micro k = Option.value ~default:0. (List.assoc_opt k micro) in
  let words_per unit_ per sub = (div (stat (sub ^ ".gc.minor_words")) per, unit_) in
  [ ("sim.events_per_MB", (div (float_of_int f.events) mb, "events/MB"));
    ("sim.residual_ns_per_event", (div (self Spans.run) (float_of_int f.events), "ns/event"));
    ("sim.compactions", (count "engine.compactions", "count"));
    ("sim.live_timers_hwm", (float_of_int f.live_hwm, "count"));
    ( "sim.channel_ns_per_seg",
      (per_span (if frames > 0. then Spans.dl_wire else Spans.wire 0), "ns/seg") );
    ("transport.rx_ns_per_seg", (per_span (Spans.rx 0), "ns/seg"));
    ("transport.app_ns_per_KB", (div (self (Spans.app 0) +. self (Spans.deliver 0)) kb, "ns/KB")) ]
  @ List.map
      (fun sub ->
        (Printf.sprintf "transport.%s.minor_words_per_seg" sub, words_per "words/seg" segs sub))
      [ "osr"; "rd"; "cm"; "dm"; "app"; "wire"; "rec" ]
  @ [ ("transport.rd.retx_per_seg", (div (stat "rd.retransmits") (stat "rd.segments_sent"), "ratio"));
      ("transport.rd.timeouts_per_flow", (div (stat "rd.timeouts") flows, "count/flow"));
      ("transport.rd.flight_p50_ms", (ms_at "rd.flight" 0.5, "ms"));
      ("transport.rd.flight_p99_ms", (ms_at "rd.flight" 0.99, "ms"));
      ("transport.cm.handshake_retx_per_flow", (div (stat "cm.handshake_retx") flows, "count/flow"));
      ("transport.osr.buffer_p99_ms", (ms_at "osr.buffer" 0.99, "ms"));
      ("transport.wire_bytes_per_payload_byte", (div (count "l0.wire_bytes") bytes, "ratio"));
      ("tunnel.inner_rx_ns_per_seg", (per_span (Spans.rx 1), "ns/seg"));
      ("tunnel.outer_rx_ns_per_seg", (tunnel (per_span (Spans.rx 0)), "ns/seg"));
      ( "tunnel.framing_ns_per_frame",
        ( div
            (self Spans.tunnel_tx +. self Spans.tunnel_rx +. tunnel (self (Spans.deliver 0)))
            (count "tunnel.frames"),
          "ns/frame" ) );
      ( "tunnel.frames_per_inner_seg",
        (tunnel (div (n (Spans.wire 0)) (n (Spans.wire 1))), "ratio") );
      ("tunnel.l0.rd.flight_p99_ms", (tunnel (ms_at "rd.flight" 0.99), "ms"));
      ("tunnel.l1.rd.flight_p99_ms", (ms_at "l1:rd.flight" 0.99, "ms"));
      ("bitkit.copied_bytes_per_KB", (div (count "copied_bytes") kb, "bytes/KB"));
      ("bitkit.chacha20_ns_per_KB", (micro "chacha20", "ns/KB"));
      ("bitkit.siphash_ns_per_KB", (micro "siphash", "ns/KB"));
      ("bitkit.crc32_ns_per_KB", (micro "crc32", "ns/KB"));
      ("datalink.rx_ns_per_frame", (per_span Spans.dl_rx, "ns/frame"));
      ("datalink.tx_ns_per_frame", (per_span Spans.dl_send, "ns/frame"));
      ("stuffing.encode_ns_per_KB", (micro "stuff_encode", "ns/KB"));
      ("stuffing.decode_ns_per_KB", (micro "stuff_decode", "ns/KB")) ]
  @ List.map
      (fun sub ->
        (Printf.sprintf "datalink.%s.minor_words_per_frame" sub, words_per "words/frame" frames sub))
      [ "arq"; "detector"; "framer"; "linecode" ]
  @ [ ("datalink.arq.retx_per_frame", (div (count "datalink.retransmissions") frames, "ratio"));
      ( "datalink.wire_bits_per_payload_bit",
        (div (count "datalink.wire_bits") (8. *. bytes), "ratio") );
      ("monitor.checks_per_seg", (div (float_of_int f.checked) segs, "checks/seg"));
      ("trace.overhead_pct", (overhead_pct, "%")) ]

(* ---- the two kinds of run ---- *)

type run = {
  metrics : (string * float * string) list;
  attempted : int;
  failed : int;
  problems : string list;
}

let report tag (it : iteration) =
  Printf.printf "%s setup %.3fs, run %.3fs, %d events, %d/%d exact, %d bytes, speed %.3f\n%!" tag
    it.setup_s
    (float_of_int it.facts.wall_ns /. 1e9)
    it.facts.events
    (it.facts.attempted - it.facts.failed)
    it.facts.attempted it.facts.delivered it.speed

(* Repeat [step] until the clock passes [until] (ns) and at least [min]
   steps ran. *)
let repeat ~until ~min step =
  let rec go acc k =
    if k >= min && Spans.now_ns () >= until then List.rev acc else go (step k :: acc) (k + 1)
  in
  go [] 0

let untraced shape ~seed ~until spans =
  let its =
    repeat ~until ~min:min_iterations (fun k ->
        let it, _ = iterate shape ~seed ~traced:false spans in
        report (Printf.sprintf "iteration %d:" k) it;
        it)
  in
  let first = (List.hd its).facts in
  let problems =
    List.concat_map (fun (it : iteration) -> it.facts.failures) its
    @
    if List.for_all (fun (it : iteration) -> same_sim first it.facts) its then []
    else [ "an iteration did not repeat the first iteration's simulated outcome" ]
  in
  let e2e = end_to_end its in
  Printf.printf "\n%-22s %16s  %-9s %-10s %s\n" "metric" "value" "unit" "clock" "";
  List.iter
    (fun x -> Printf.printf "%-22s %16.6g  %-9s %-10s %s\n" x.name x.value x.unit_ x.clock x.note)
    e2e;
  let attempted, failed = totals its in
  (* failed_share travels as the JSON line's failed / attempted. *)
  { metrics =
      List.filter_map
        (fun x -> if x.name = "failed_share" then None else Some (x.name, x.value, x.unit_))
        e2e;
    attempted; failed; problems }

let traced shape ~seed ~until ~out ~host spans =
  let pairs =
    repeat ~until ~min:1 (fun k ->
        let plain, _ = iterate shape ~seed ~traced:false spans in
        Spans.reset spans;
        let traced, micro = iterate shape ~seed ~traced:true spans in
        report (Printf.sprintf "pair %d untraced:" k) plain;
        report (Printf.sprintf "pair %d traced:  " k) traced;
        (plain, traced, Spans.summarise spans, micro))
  in
  let problems =
    List.concat_map
      (fun ((plain : iteration), (traced : iteration), (s : Spans.summary), _) ->
        let self_total = Array.fold_left ( + ) 0 s.self_ns in
        plain.facts.failures @ traced.facts.failures
        @ List.map (fun p -> "span accounting: " ^ p) s.problems
        @ (if same_sim plain.facts traced.facts then []
           else [ "the traced run did not repeat the untraced run's simulated outcome" ])
        @ (if self_total = s.wall_ns then []
           else
             [ Printf.sprintf "span self times sum to %d ns, the traced wall is %d ns" self_total
                 s.wall_ns ])
        @
        match List.assoc_opt "tracer.lost" traced.facts.counts with
        | Some n when n > 0. -> [ Printf.sprintf "%.0f virtual-time spans were evicted" n ]
        | _ -> [])
      pairs
  in
  let wall f = median (List.map (fun x -> float_of_int (f x : iteration).facts.wall_ns) pairs) in
  let overhead_pct =
    100. *. ((wall (fun (_, t, _, _) -> t) /. wall (fun (p, _, _, _) -> p)) -. 1.)
  in
  let _, _, last_summary, _ = List.nth pairs (List.length pairs - 1) in
  let rows =
    List.map
      (fun ((_ : iteration), (t : iteration), s, micro) -> per_layer t.facts s ~micro ~overhead_pct)
      pairs
  in
  (* Each per-layer value is the median over the traced iterations. *)
  let layer =
    List.map
      (fun (name, (_, u)) -> (name, median (List.map (fun r -> fst (List.assoc name r)) rows), u))
      (List.hd rows)
  in
  Printf.printf "\nhost self time by span kind (last traced iteration):\n";
  Array.iteri
    (fun k c ->
      if c > 0 then
        Printf.printf "  %-18s %9d spans %12.3f ms\n" Spans.names.(k) c
          (float_of_int last_summary.Spans.self_ns.(k) /. 1e6))
    last_summary.Spans.count;
  Printf.printf "\n%-44s %16s  %s\n" "per-layer metric" "value" "unit";
  List.iter (fun (n, v, u) -> Printf.printf "%-44s %16.6g  %s\n" n v u) layer;
  let path =
    Filename.concat out (Printf.sprintf "%s-seed%d.trace.json" (List.assoc "workload" host) seed)
  in
  (try
     let written = Spans.write_chrome spans ~limit:200_000 ~meta:host path in
     Printf.printf "\n%d of %d spans written to %s (open in ui.perfetto.dev)\n" written
       spans.Spans.n path
   with Sys_error e -> Printf.printf "\nspans not written: %s\n" e);
  let attempted, failed = totals (List.concat_map (fun (p, t, _, _) -> [ p; t ]) pairs) in
  { metrics = layer; attempted; failed; problems }

(* ---- output ---- *)

let json_result ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v u)
          metrics))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let () =
  let (wname, shape), seed, seconds, trace, out = parse Sys.argv in
  let host = host_facts ~workload:wname ~seed in
  Printf.printf "# perfbench %s\n%!" (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) host));
  (try mkdir_p out with Sys_error _ -> ());
  let spans = Spans.create () in
  let until = Spans.now_ns () + int_of_float (seconds *. 1e9) in
  (* A discarded first iteration pays the process's one-off costs (heap
     growth, first touches) that later iterations do not. *)
  ignore (iterate shape ~seed ~traced:false spans);
  let r =
    if trace then traced shape ~seed ~until ~out ~host spans
    else untraced shape ~seed ~until spans
  in
  let problems =
    r.problems
    @ List.filter_map
        (fun (name, v, _) -> if Float.is_finite v then None else Some (name ^ " is not finite"))
        r.metrics
  in
  List.iteri (fun i p -> if i < 10 then Printf.printf "FAIL: %s\n" p) problems;
  let correct = problems = [] && r.failed = 0 in
  let result =
    json_result ~correct ~attempted:r.attempted ~failed:r.failed
      (List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.), u)) r.metrics)
  in
  (try
     let oc =
       open_out
         (Filename.concat out
            (Printf.sprintf "%s-seed%d-trace%d.json" wname seed (Bool.to_int trace)))
     in
     Printf.fprintf oc "{\"host\": {%s}, \"result\": %s}\n"
       (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) host))
       result;
     close_out oc
   with Sys_error _ -> ());
  print_endline result;
  exit (if correct then 0 else 1)
