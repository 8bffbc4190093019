(* Runtime conformance monitors (E25): legal runs on every stack are
   violation-free on both engine backends, mutated sublayers are caught
   and blamed by name, and the global kill switch makes observation
   free. *)

open Transport

let check = Alcotest.check

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let random_data seed n =
  let rng = Bitkit.Rng.create seed in
  String.init n (fun _ -> Char.chr (Bitkit.Rng.int rng 256))

(* --- Legal traces: transport ------------------------------------- *)

(* One bidirectional transfer over a lossy channel (retransmission and
   reordering paths included), with a shared monitor registry watching
   both hosts. A conforming stack must come out violation-free. *)
let legal_transfer backend factory ~seed =
  let engine = Sim.Engine.create ~seed ~backend () in
  let monitors = Monitor.Runtime.create ~label:"legal" () in
  let a, b =
    Host.pair engine ~factory_a:factory ~factory_b:factory ~monitors
      (Sim.Channel.lossy 0.05)
  in
  Host.listen b ~port:80;
  let server = ref None in
  Host.on_accept b (fun c ->
      server := Some c;
      Host.write c (random_data (seed + 1) 4_000);
      Host.close c);
  let c = Host.connect a ~remote_port:80 () in
  let data = random_data seed 20_000 in
  Host.write c data;
  Host.close c;
  Sim.Engine.run ~until:300. engine;
  (match !server with
  | None -> Alcotest.failf "%s: no accept" factory.Host.fname
  | Some srv ->
      if Host.received srv <> data then
        Alcotest.failf "%s: wrong bytes (%d/%d)" factory.Host.fname
          (Host.received_length srv) (String.length data));
  List.iter
    (fun v -> Alcotest.failf "%s: %s" factory.Host.fname v)
    (Monitor.Runtime.violations monitors);
  monitors

let factories =
  [ (Host.sublayered, true);
    (Tcp_monolithic.factory, false);
    (Shim.factory, true);
    (Tcp_watson.factory (), true);
    (Tcp_secure.factory ~key:Tcp_secure.demo_key, true) ]

let test_legal_transport backend () =
  List.iteri
    (fun i (factory, monitored) ->
      let monitors = legal_transfer backend factory ~seed:(40 + i) in
      let checked = Monitor.Runtime.checked monitors in
      if monitored then begin
        if checked = 0 then
          Alcotest.failf "%s: no interface crossings checked"
            factory.Host.fname;
        check Alcotest.bool
          (factory.Host.fname ^ " verdicts clean")
          true
          (List.for_all
             (fun (_, c, v) -> c > 0 && v = 0)
             (Monitor.Runtime.verdicts monitors))
      end
      else
        (* The monolithic baseline has no T2 interfaces to probe. *)
        check Alcotest.int (factory.Host.fname ^ " unmonitored") 0 checked)
    factories

(* The sublayered stack crosses all five monitored transport interfaces;
   make sure each one actually produced verdicts. *)
let test_transport_coverage () =
  let monitors = legal_transfer `Wheel Host.sublayered ~seed:51 in
  let subs = List.map (fun (s, _, _) -> s) (Monitor.Runtime.verdicts monitors) in
  List.iter
    (fun sub ->
      if not (List.mem sub subs) then
        Alcotest.failf "no verdicts for sublayer %s" sub)
    [ "app"; "osr"; "rd"; "cm"; "dm" ]

(* --- Legal traces: data link ------------------------------------- *)

let arq_trio =
  [ (module Datalink.Arq_stop_and_wait : Datalink.Arq.S);
    (module Datalink.Arq_go_back_n);
    (module Datalink.Arq_selective_repeat) ]

let test_legal_datalink backend () =
  List.iter
    (fun arq ->
      let module A = (val arq : Datalink.Arq.S) in
      let engine = Sim.Engine.create ~seed:9 ~backend () in
      let monitors = Monitor.Runtime.create ~label:"dl" () in
      let spec = { Datalink.Stack.default_spec with arq } in
      let link =
        Datalink.Stack.link engine ~monitors (Sim.Channel.lossy 0.08) spec
      in
      let payloads = List.init 30 (fun i -> Printf.sprintf "frame-%d" i) in
      let got = Datalink.Stack.transfer engine link payloads in
      check Alcotest.(list string) (A.name ^ " delivered") payloads got;
      List.iter
        (fun v -> Alcotest.failf "%s: %s" A.name v)
        (Monitor.Runtime.violations monitors);
      if Monitor.Runtime.checked monitors = 0 then
        Alcotest.failf "%s: nothing checked" A.name)
    arq_trio

(* --- Mutations: buggy sublayers must be caught and blamed --------- *)

module Machine = Sublayer.Machine

(* A benign RD stand-in: comes up on Connect, absorbs transmissions. *)
module Sink_rd = struct
  let name = "sink-rd"

  type t = unit
  type up_req = Iface.rd_req
  type up_ind = Iface.rd_ind
  type down_req = unit
  type down_ind = unit
  type timer = Machine.Nothing.t

  let handle_up_req () : up_req -> t * (up_ind, down_req, timer) Machine.action list = function
    | `Connect | `Listen -> ((), [ Machine.Up `Established ])
    | _ -> ((), [])

  let handle_down_ind () () = ((), [])
  let handle_timer () (t : timer) = Machine.Nothing.absurd t
end

(* Mutated RD: acknowledges one byte beyond anything transmitted. *)
module Greedy_rd = struct
  include Sink_rd

  let name = "greedy-rd"

  let handle_up_req () : up_req -> t * (up_ind, down_req, timer) Machine.action list = function
    | `Connect | `Listen -> ((), [ Machine.Up `Established ])
    | `Transmit (off, len, _) ->
        ((), [ Machine.Up (`Acked (off + len + 1, Bitkit.Slice.of_string "", None)) ])
    | _ -> ((), [])
end

(* Mutated CM: delivers a payload PDU while the handshake is still
   opening (exactly the early-delivery bug Specs.rd_cm exists for). *)
module Chatty_cm = struct
  let name = "chatty-cm"

  type t = unit
  type up_req = Iface.cm_req
  type up_ind = Iface.cm_ind
  type down_req = unit
  type down_ind = unit
  type timer = Machine.Nothing.t

  let handle_up_req () : up_req -> t * (up_ind, down_req, timer) Machine.action list = function
    | `Connect -> ((), [ Machine.Up (`Pdu (Bitkit.Slice.of_string "early")) ])
    | _ -> ((), [])

  let handle_down_ind () () = ((), [])
  let handle_timer () (t : timer) = Machine.Nothing.absurd t
end

module R_sink = Sublayer.Runtime.Make (Machine.Stack (Conform.P_osr_rd) (Sink_rd))
module R_greedy = Sublayer.Runtime.Make (Machine.Stack (Conform.P_osr_rd) (Greedy_rd))
module R_chatty = Sublayer.Runtime.Make (Machine.Stack (Conform.P_rd_cm) (Chatty_cm))

let expect_violation monitors ~guilty ~key =
  (match Monitor.Runtime.violations monitors with
  | [ msg ] ->
      if not (contains msg (guilty ^ " violated")) then
        Alcotest.failf "blame mismatch, wanted %s in %S" guilty msg;
      if not (contains msg ("[" ^ key ^ "]")) then
        Alcotest.failf "key missing in %S" msg
  | msgs -> Alcotest.failf "wanted exactly one violation, got %d" (List.length msgs));
  check Alcotest.int "count" 1 (Monitor.Runtime.violation_count monitors)

let buf n = Bitkit.Wirebuf.of_string (String.make n 'x')

(* The upper sublayer misbehaves: a transmit that skips part of the
   stream. Down-direction violation, blamed on "osr". *)
let test_mutation_osr_gap () =
  let engine = Sim.Engine.create ~seed:1 () in
  let monitors = Monitor.Runtime.create ~label:"mut" () in
  let t =
    R_sink.create engine ~transmit:ignore ~deliver:ignore
      (Conform.osr_rd (Some monitors) ~conn:"mut-osr", ())
  in
  R_sink.from_above t `Connect;
  R_sink.from_above t (`Transmit (0, 100, buf 100));
  check Alcotest.int "legal prefix clean" 0 (Monitor.Runtime.violation_count monitors);
  R_sink.from_above t (`Transmit (150, 10, buf 10));
  expect_violation monitors ~guilty:"osr" ~key:"mut-osr";
  (* a dead instance stays silent — one bug, one report *)
  R_sink.from_above t (`Transmit (400, 10, buf 10));
  check Alcotest.int "silenced" 1 (Monitor.Runtime.violation_count monitors)

(* The lower sublayer misbehaves: an ack overtaking transmission.
   Up-direction violation, blamed on "rd". *)
let test_mutation_rd_overack () =
  let engine = Sim.Engine.create ~seed:2 () in
  let monitors = Monitor.Runtime.create ~label:"mut" () in
  let t =
    R_greedy.create engine ~transmit:ignore ~deliver:ignore
      (Conform.osr_rd (Some monitors) ~conn:"mut-rd", ())
  in
  R_greedy.from_above t `Connect;
  R_greedy.from_above t (`Transmit (0, 100, buf 100));
  expect_violation monitors ~guilty:"rd" ~key:"mut-rd"

(* CM delivers data in the opening phase: blamed on "cm". *)
let test_mutation_cm_early_pdu () =
  let engine = Sim.Engine.create ~seed:3 () in
  let monitors = Monitor.Runtime.create ~label:"mut" () in
  let t =
    R_chatty.create engine ~transmit:ignore ~deliver:ignore
      (Conform.rd_cm (Some monitors) ~conn:"mut-cm", ())
  in
  R_chatty.from_above t `Connect;
  expect_violation monitors ~guilty:"cm" ~key:"mut-cm"

(* A go-back-N sender transmitting outside its own window, fed through
   the data-link probe's decoder: blamed on "arq-gbn". *)
let test_mutation_arq_window () =
  let monitors = Monitor.Runtime.create ~label:"mut" () in
  let p =
    Datalink.Conform.arq_det (Some monitors) ~key:"mut-dl" ~variant:"arq-gbn"
      ~window:4
  in
  p.Datalink.Conform.P_arq_det.obs_req (Datalink.Arq.data_wirebuf ~seq:0 "ok");
  p.Datalink.Conform.P_arq_det.obs_req (Datalink.Arq.data_wirebuf ~seq:3 "ok");
  check Alcotest.int "in-window clean" 0 (Monitor.Runtime.violation_count monitors);
  p.Datalink.Conform.P_arq_det.obs_req (Datalink.Arq.data_wirebuf ~seq:100 "bad");
  expect_violation monitors ~guilty:"arq-gbn" ~key:"mut-dl"

(* --- Global kill switch ------------------------------------------ *)

(* Disabled monitors check nothing: a full transfer with a registry
   attached records zero events, and the observe hot path does not
   allocate. *)
let test_disabled_is_free () =
  Fun.protect ~finally:(fun () -> Monitor.Runtime.set_enabled true) @@ fun () ->
  Monitor.Runtime.set_enabled false;
  check Alcotest.bool "reads back" false (Monitor.Runtime.enabled ());
  let monitors = legal_transfer `Wheel Host.sublayered ~seed:61 in
  check Alcotest.int "no events" 0 (Monitor.Runtime.checked monitors);
  check Alcotest.bool "no verdict counts" true
    (List.for_all (fun (_, c, v) -> c = 0 && v = 0)
       (Monitor.Runtime.verdicts monitors));
  (* allocation-free observe: drive one probe closure in a tight loop *)
  let reg = Monitor.Runtime.create ~label:"off" () in
  let p = Conform.osr_rd (Some reg) ~conn:"off" in
  let before = Gc.allocated_bytes () in
  for _ = 1 to 50_000 do
    p.Conform.P_osr_rd.obs_req `Connect
  done;
  let allocated = Gc.allocated_bytes () -. before in
  if allocated > 512. then
    Alcotest.failf "disabled observe allocated %.0f bytes" allocated;
  check Alcotest.int "still zero" 0 (Monitor.Runtime.checked reg)

let () =
  Alcotest.run "monitor"
    [ ( "legal",
        [ Alcotest.test_case "transport on wheel" `Quick (test_legal_transport `Wheel);
          Alcotest.test_case "transport on heap" `Quick (test_legal_transport `Heap);
          Alcotest.test_case "all transport interfaces covered" `Quick
            test_transport_coverage;
          Alcotest.test_case "datalink trio on wheel" `Quick (test_legal_datalink `Wheel);
          Alcotest.test_case "datalink trio on heap" `Quick (test_legal_datalink `Heap) ] );
      ( "mutations",
        [ Alcotest.test_case "osr transmit gap" `Quick test_mutation_osr_gap;
          Alcotest.test_case "rd over-ack" `Quick test_mutation_rd_overack;
          Alcotest.test_case "cm early pdu" `Quick test_mutation_cm_early_pdu;
          Alcotest.test_case "arq outside window" `Quick test_mutation_arq_window ] );
      ( "kill switch",
        [ Alcotest.test_case "disabled is free" `Quick test_disabled_is_free ] ) ]
