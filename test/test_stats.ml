(* Unit tests for the Sublayer.Stats instruments, a check that every
   sublayer counts the PDUs and payloads it discards, and one integration
   check that a lossy ARQ run's retransmit counter agrees with the span
   tracer. *)

let check = Alcotest.check
module Stats = Sublayer.Stats

let test_counters () =
  let reg = Stats.create ~label:"t" () in
  let sc = Stats.scope reg "arq" in
  let c = Stats.counter sc "data_sent" in
  check Alcotest.int "starts at zero" 0 (Stats.value c);
  Stats.incr c;
  Stats.incr c;
  Stats.add c 40;
  check Alcotest.int "incr + add" 42 (Stats.value c);
  (* Find-or-create: the same name must alias the same cell. *)
  let c' = Stats.counter sc "data_sent" in
  Stats.incr c';
  check Alcotest.int "aliased by name" 43 (Stats.value c);
  let other = Stats.counter (Stats.scope reg "arq") "data_sent" in
  Stats.incr other;
  check Alcotest.int "scope aliased by name too" 44 (Stats.value c);
  check Alcotest.int "distinct names distinct cells" 0
    (Stats.value (Stats.counter sc "acks_sent"))

let test_gauges () =
  let sc = Stats.scope (Stats.create ()) "cc" in
  let g = Stats.gauge sc "cwnd_bytes" in
  check Alcotest.int "starts at zero" 0 (Stats.gauge_value g);
  Stats.set g 1460;
  Stats.set g 2920;
  check Alcotest.int "last set wins" 2920 (Stats.gauge_value g)

let test_histograms () =
  let sc = Stats.scope (Stats.create ()) "rd" in
  let h = Stats.histogram sc "rtt_us" in
  List.iter (Stats.observe h) [ 0; 1; 2; 3; 5; 8; 1000 ];
  check Alcotest.int "count" 7 (Stats.hist_count h);
  check Alcotest.int "sum" 1019 (Stats.hist_sum h);
  (* log2 lower bounds: 0,1 -> 1; 2,3 -> 2; 5 -> 4; 8 -> 8; 1000 -> 512. *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "bucket layout"
    [ (1, 2); (2, 2); (4, 1); (8, 1); (512, 1) ]
    (Stats.hist_buckets h)

let test_enabled_switch () =
  let sc = Stats.scope (Stats.create ()) "arq" in
  let c = Stats.counter sc "data_sent" in
  let g = Stats.gauge sc "w" in
  let h = Stats.histogram sc "d" in
  Stats.set_enabled false;
  Fun.protect ~finally:(fun () -> Stats.set_enabled true) (fun () ->
      Stats.incr c;
      Stats.add c 10;
      Stats.set g 5;
      Stats.observe h 3;
      check Alcotest.bool "reports disabled" false (Stats.enabled ());
      check Alcotest.int "counter frozen" 0 (Stats.value c);
      check Alcotest.int "gauge frozen" 0 (Stats.gauge_value g);
      check Alcotest.int "histogram frozen" 0 (Stats.hist_count h));
  Stats.incr c;
  check Alcotest.int "counts again once re-enabled" 1 (Stats.value c)

let test_unregistered_scope () =
  (* Machines fall back to an unregistered scope when the caller passes
     no registry: instruments still count, nothing is enumerable. *)
  let sc = Stats.unregistered "arq" in
  let c = Stats.counter sc "data_sent" in
  Stats.incr c;
  check Alcotest.int "still counts" 1 (Stats.value c);
  check Alcotest.string "keeps its name" "arq" (Stats.scope_name sc)

let snapshot_t = Alcotest.(list (pair string int))

let test_snapshot_and_delta () =
  let reg = Stats.create ~label:"host" () in
  let arq = Stats.scope reg "arq" in
  let cm = Stats.scope reg "cm" in
  Stats.add (Stats.counter arq "data_sent") 5;
  Stats.incr (Stats.counter cm "established");
  Stats.set (Stats.gauge cm "phase") 3;
  let before = Stats.snapshot reg in
  check snapshot_t "name-sorted flat pairs"
    [ ("arq.data_sent", 5); ("cm.established", 1); ("cm.phase", 3) ]
    before;
  Stats.add (Stats.counter arq "data_sent") 2;
  Stats.incr (Stats.counter arq "retransmissions");
  let after = Stats.snapshot reg in
  check snapshot_t "delta drops zeros, counts new names from 0"
    [ ("arq.data_sent", 2); ("arq.retransmissions", 1) ]
    (Stats.delta ~before ~after);
  let h = Stats.histogram arq "burst" in
  Stats.observe h 4;
  Stats.observe h 6;
  let snap = Stats.snapshot reg in
  check Alcotest.int "histogram count entry" 2 (List.assoc "arq.burst.count" snap);
  check Alcotest.int "histogram sum entry" 10 (List.assoc "arq.burst.sum" snap)

let test_json () =
  let reg = Stats.create ~label:"a" () in
  Stats.incr (Stats.counter (Stats.scope reg "arq") "data_sent");
  check Alcotest.string "snapshot json" {|{"arq.data_sent":1}|}
    (Stats.snapshot_to_json (Stats.snapshot reg));
  check Alcotest.string "registry json" {|{"label":"a","stats":{"arq.data_sent":1}}|}
    (Stats.to_json reg)

(* --- Drops: every discarded PDU or payload moves a named counter --- *)

module T = Transport

(* One row per drop path: the scope and counter that must count it, and
   a feed that builds the sublayer on that scope and hands it one
   malformed, early or undeliverable input. *)
let transport_drops =
  let cfg = T.Config.default and now () = 0. in
  let junk = Bitkit.Slice.of_string "\001" in
  let established_rd sc =
    fst (T.Rd.handle_down_ind (T.Rd.initial ~stats:sc cfg ~now) (`Established (1, 2)))
  in
  let osr sc = T.Osr.initial ~stats:sc cfg ~now in
  let msg sc = T.Msg.initial ~stats:sc cfg ~now in
  let rec_ sc =
    T.Rec.initial ~stats:sc ~key:T.Tcp_secure.demo_key ~local_port:1 ~remote_port:2 ()
  in
  [
    ( "rd: pdu with no connection", "rd", "dropped",
      fun sc -> ignore (T.Rd.handle_down_ind (T.Rd.initial ~stats:sc cfg ~now) (`Pdu junk)) );
    ( "rd: payload with no connection", "rd", "dropped",
      fun sc ->
        ignore
          (T.Rd.handle_up_req (T.Rd.initial ~stats:sc cfg ~now)
             (`Transmit (0, 1, Bitkit.Wirebuf.of_string "x"))) );
    ( "rd: undecodable pdu", "rd", "dropped",
      fun sc -> ignore (T.Rd.handle_down_ind (established_rd sc) (`Pdu junk)) );
    ( "rd: implausible extent", "rd", "dropped",
      fun sc ->
        let seg =
          T.Segment.encode_rd
            { T.Segment.seq = 3; ack = 0; len = 100; has_data = true; has_ack = false;
              sacks = [] }
            ~payload:""
        in
        ignore
          (T.Rd.handle_down_ind (established_rd sc) (`Pdu (Bitkit.Slice.of_string seg))) );
    ( "osr: undecodable segment", "osr", "dropped",
      fun sc ->
        let t, _ = T.Osr.handle_down_ind (osr sc) `Established in
        ignore (T.Osr.handle_down_ind t (`Segment (0, Bitkit.Slice.of_string ""))) );
    ( "osr: segment before establishment", "osr", "dropped",
      fun sc -> ignore (T.Osr.handle_down_ind (osr sc) (`Segment (0, junk))) );
    ( "msg: undecodable segment", "msg", "dropped",
      fun sc ->
        let t, _ = T.Msg.handle_down_ind (msg sc) `Established in
        ignore (T.Msg.handle_down_ind t (`Segment (0, Bitkit.Slice.of_string ""))) );
    ( "msg: segment before establishment", "msg", "dropped",
      fun sc -> ignore (T.Msg.handle_down_ind (msg sc) (`Segment (0, junk))) );
    ( "cm: data before establishment", "cm", "segments_dropped",
      fun sc ->
        let t =
          T.Cm.initial ~stats:sc cfg ~isn:(T.Isn.counter ()) ~local_port:1 ~remote_port:2
        in
        ignore (T.Cm.handle_up_req t (`Pdu (Bitkit.Wirebuf.of_string "x"))) );
    ( "rec: forged record", "rec", "auth_failures",
      fun sc ->
        ignore (T.Rec.handle_down_ind (rec_ sc) (Bitkit.Slice.of_string (String.make 32 'x'))) );
    ( "rec: record too short for a tag", "rec", "auth_failures",
      fun sc -> ignore (T.Rec.handle_down_ind (rec_ sc) junk) );
  ]

(* The ARQs run under a runtime so the give-up timer can fire: with
   [max_retries = 0] the first timeout declares the link dead, and the
   next payload offered is discarded. *)
let arq_drops =
  let run (module A : Datalink.Arq.S) feed sc =
    let engine = Sim.Engine.create () in
    let module R = Sublayer.Runtime.Make (A) in
    let cfg = { Datalink.Arq.default_config with max_retries = 0 } in
    let r = R.create engine ~transmit:ignore ~deliver:ignore (A.initial ~stats:sc cfg) in
    feed engine ~above:(R.from_above r) ~below:(R.from_below r)
  in
  let undecodable _ ~above:_ ~below = below (Bitkit.Slice.of_string "\007") in
  let after_death engine ~above ~below:_ =
    above "x";
    Sim.Engine.run engine;
    above "y"
  in
  let out_of_order _ ~above:_ ~below =
    below (Bitkit.Slice.of_string (Datalink.Arq.encode_pdu (Datalink.Arq.Data (5, "x"))))
  in
  let variants =
    [ ("gbn", (module Datalink.Arq_go_back_n : Datalink.Arq.S));
      ("sr", (module Datalink.Arq_selective_repeat));
      ("sw", (module Datalink.Arq_stop_and_wait)) ]
  in
  List.concat_map
    (fun (v, arq) ->
      [ ("arq-" ^ v ^ ": undecodable pdu", "arq", "dropped", run arq undecodable);
        ("arq-" ^ v ^ ": payload after link death", "arq", "dropped", run arq after_death) ])
    variants
  @ [ ( "arq-gbn: out-of-order data", "arq", "dropped",
        run (module Datalink.Arq_go_back_n) out_of_order ) ]

let test_drops_counted () =
  List.iter
    (fun (label, scope, counter, feed) ->
      let reg = Stats.create () in
      feed (Stats.scope reg scope);
      let key = scope ^ "." ^ counter in
      check Alcotest.int label 1
        (Option.value ~default:0 (List.assoc_opt key (Stats.snapshot reg))))
    (transport_drops @ arq_drops)

(* --- Integration: counters vs. the span tracer --- *)

let test_arq_retransmits_match_trace () =
  (* Drive a go-back-n link over a lossy channel with both a tracer and a
     stats registry attached; the [arq.retransmissions] counter must
     agree with the number of [retx] child spans hanging off that
     endpoint's ARQ flight spans, per endpoint. *)
  let engine = Sim.Engine.create ~seed:7 () in
  let tracer = Sim.Tracer.create ~capacity:65536 () in
  let stats_a = Stats.create ~label:"A" () in
  let stats_b = Stats.create ~label:"B" () in
  let link =
    Datalink.Stack.link engine ~tracer ~stats_a ~stats_b
      (Sim.Channel.lossy 0.2) Datalink.Stack.default_spec
  in
  let payloads = List.init 40 (Printf.sprintf "payload %d") in
  let received = Datalink.Stack.transfer engine link payloads in
  check Alcotest.int "transfer completed" 40 (List.length received);
  check Alcotest.int "no span evicted" 0 (Sim.Tracer.dropped tracer);
  let retx reg = List.assoc_opt "arq.retransmissions" (Stats.snapshot reg) in
  let counted r = Option.value ~default:0 (retx r) in
  check Alcotest.bool "lossy run actually retransmitted" true
    (counted stats_a > 0);
  let spans = Sim.Tracer.spans tracer @ Sim.Tracer.live_spans tracer in
  let traced track =
    let arq (s : Sim.Tracer.span) = s.sp_track = track && s.sp_sublayer = "arq" in
    let flights =
      List.filter_map
        (fun (s : Sim.Tracer.span) ->
          if arq s && s.sp_name = "flight" then Some s.sp_id else None)
        spans
    in
    List.length
      (List.filter
         (fun (s : Sim.Tracer.span) ->
           arq s && s.sp_name = "retx" && List.mem s.sp_parent flights)
         spans)
  in
  check Alcotest.int "A counter matches trace" (traced "A") (counted stats_a);
  check Alcotest.int "B counter matches trace" (traced "B") (counted stats_b)

let () =
  Alcotest.run "stats"
    [
      ( "instruments",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "enabled switch" `Quick test_enabled_switch;
          Alcotest.test_case "unregistered scope" `Quick test_unregistered_scope;
        ] );
      ( "reports",
        [
          Alcotest.test_case "snapshot + delta" `Quick test_snapshot_and_delta;
          Alcotest.test_case "json" `Quick test_json;
        ] );
      ( "drops",
        [ Alcotest.test_case "every drop path is counted" `Quick test_drops_counted ] );
      ( "integration",
        [
          Alcotest.test_case "arq retransmits match trace" `Quick
            test_arq_retransmits_match_trace;
        ] );
    ]
