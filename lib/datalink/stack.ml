module Machine = Sublayer.Machine
module Runtime = Sublayer.Runtime

type spec = {
  arq : (module Arq.S);
  arq_config : Arq.config;
  detector : Detector.t;
  framer : Framer.t;
  linecode : Linecode.t;
}

let default_spec =
  {
    arq = (module Arq_go_back_n);
    arq_config = Arq.default_config;
    detector = Detector.crc Bitkit.Crc.crc32;
    framer = Framer.hdlc Stuffing.Rule.hdlc;
    linecode = Linecode.nrz;
  }

module I = Sublayer.Instrument

type endpoint = {
  send : string -> unit;
  from_wire : Bitkit.Bitseq.t -> unit;
  arq_stats : unit -> Arq.stats;
  is_idle : unit -> bool;
  arq_gave_up : unit -> bool;
  halt : unit -> unit;
  mutable killed : bool;  (* the link below died under us *)
}

let send t payload = t.send payload
let from_wire t bits = t.from_wire bits
let arq_stats t = t.arq_stats ()
let is_idle t = t.is_idle ()
let gave_up t = t.killed || t.arq_gave_up ()

let endpoint engine ?(ins = I.none) ~name spec ~transmit ~deliver =
  let stats = ins.I.stats and monitors = ins.I.monitors
  and telemetry = ins.I.telemetry and pool = ins.I.pool in
  (* The detector's loans live until the end of the event that framed
     them; the engine hook is what frees them. Attaching per endpoint is
     idempotent in effect — draining an empty deferred list is a no-op. *)
  Option.iter
    (fun p -> Sim.Engine.after_event engine (fun () -> Bitkit.Pool.drain_deferred p))
    pool;
  let name = I.tagged_name ins name in
  let module A = (val spec.arq : Arq.S) in
  let module Lower =
    Machine.Stack (Layers.Framing) (Machine.Stack (Conform.P_frm_line) (Layers.Line_coding))
  in
  let module Middle =
    Machine.Stack (Layers.Error_detection) (Machine.Stack (Conform.P_det_frm) (Lower))
  in
  let module Full = Machine.Stack (A) (Machine.Stack (Conform.P_arq_det) (Middle)) in
  let module R = Runtime.Make (Full) in
  (* One scope per sublayer, so the registry reports [arq.*],
     [detector.*], [framer.*] and [linecode.*] side by side (level-
     prefixed when the stack is nested). *)
  let in_scope sub = I.scope ins sub in
  let now () = Sim.Engine.now engine in
  let sp sub = I.span ins ~now ~track:name sub in
  (match (telemetry, stats) with
  | Some tele, Some reg -> Sublayer.Stats.telemetry_source tele ~name reg
  | _ -> ());
  let acell sub = I.alloc_cell ins sub in
  let arq_c = acell "arq" and det_c = acell "detector" and frm_c = acell "framer"
  and line_c = acell "linecode" and app_c = acell "app"
  and wire_c = acell "wire" in
  let alloc =
    { Sublayer.Runtime.al_top = arq_c; al_bottom = line_c; al_app = app_c;
      al_wire = wire_c;
      al_timer =
        (* Only the ARQ owns timers; every other slot is [Nothing.t]. *)
        (fun (tm : Full.timer) ->
        match tm with
        | Either.Left _ -> arq_c
        | Either.Right (Either.Left _) -> .
        | Either.Right (Either.Right (Either.Left _)) -> .
        | Either.Right (Either.Right (Either.Right (Either.Left _))) -> .
        | Either.Right (Either.Right (Either.Right (Either.Right (Either.Left _)))) ->
            .
        | Either.Right
            (Either.Right (Either.Right (Either.Right (Either.Right (Either.Left _)))))
          ->
            .
        | Either.Right
            (Either.Right (Either.Right (Either.Right (Either.Right (Either.Right _)))))
          ->
            .);
    }
  in
  let st =
    ( A.initial ?stats:(in_scope "arq") ?span:(sp "arq") spec.arq_config,
      ( Conform.arq_det ~alloc:(arq_c, det_c) monitors ~key:name ~variant:A.name
          ~window:spec.arq_config.Arq.window,
        ( Layers.Error_detection.make ?stats:(in_scope "detector")
            ?span:(sp "detector") ?pool spec.detector,
          ( Conform.det_frm ~alloc:(det_c, frm_c) monitors ~key:name,
            ( Layers.Framing.make ?stats:(in_scope "framer") ?span:(sp "framer")
                spec.framer,
              ( Conform.frm_line ~alloc:(frm_c, line_c) monitors ~key:name,
                Layers.Line_coding.make ?stats:(in_scope "linecode")
                  ?span:(sp "linecode") spec.linecode ) ) ) ) ) )
  in
  let r = R.create engine ~alloc ~transmit ~deliver st in
  {
    send = R.from_above r;
    from_wire = R.from_below r;
    arq_stats = (fun () -> A.stats (fst (R.state r)));
    is_idle = (fun () -> A.idle (fst (R.state r)));
    arq_gave_up = (fun () -> A.gave_up (fst (R.state r)));
    halt = (fun () -> R.halt r);
    killed = false;
  }

(* The Link-seam variant: transmit into any [Sublayer.Link], receive as
   its attached callback, and treat link death as ARQ give-up (the
   sender must stop retransmitting into a dead path). *)
let over_link engine ?ins ~name spec ~link ~deliver =
  let ep =
    endpoint engine ?ins ~name spec
      ~transmit:(fun bits -> Sublayer.Link.transmit link bits)
      ~deliver
  in
  Sublayer.Link.attach link (fun bits -> ep.from_wire bits);
  Sublayer.Link.on_death link (fun () ->
      ep.halt ();
      ep.killed <- true);
  ep

type link = {
  a : endpoint;
  b : endpoint;
  a_to_b : Bitkit.Bitseq.t Sim.Channel.t;
  b_to_a : Bitkit.Bitseq.t Sim.Channel.t;
  received_at_a : string Queue.t;
  received_at_b : string Queue.t;
}

let bit_channel engine config ~deliver =
  Sim.Channel.create engine config
    ~size:(fun bits -> (Bitkit.Bitseq.length bits + 7) / 8)
    ~corrupt:Sim.Channel.corrupt_bits ~deliver ()

let link engine ?stats_a ?stats_b ?tracer ?monitors ?telemetry ?pool
    config spec =
  let received_at_a = Queue.create () in
  let received_at_b = Queue.create () in
  (* Each endpoint sits on a [Sublayer.Link]; the channels deliver into
     the links, the links into the endpoints. *)
  let link_a = Sublayer.Link.make ~id:"A" () in
  let link_b = Sublayer.Link.make ~id:"B" () in
  let a_to_b =
    bit_channel engine config ~deliver:(fun bits -> Sublayer.Link.deliver link_b bits)
  in
  let b_to_a =
    bit_channel engine config ~deliver:(fun bits -> Sublayer.Link.deliver link_a bits)
  in
  Sublayer.Link.set_transmit link_a (fun bits -> Sim.Channel.send a_to_b bits);
  Sublayer.Link.set_transmit link_b (fun bits -> Sim.Channel.send b_to_a bits);
  let ins side = I.v ?stats:side ?tracer ?monitors ?telemetry ?pool () in
  let a =
    over_link engine ~ins:(ins stats_a) ~name:"A" spec ~link:link_a
      ~deliver:(fun payload -> Queue.add payload received_at_a)
  in
  let b =
    over_link engine ~ins:(ins stats_b) ~name:"B" spec ~link:link_b
      ~deliver:(fun payload -> Queue.add payload received_at_b)
  in
  { a; b; a_to_b; b_to_a; received_at_a; received_at_b }

let transfer engine ?(deadline = 3600.) link payloads =
  List.iter (fun p -> link.a.send p) payloads;
  (* Run until the sender has nothing outstanding; timers keep the event
     queue non-empty, so poll in bounded slices of virtual time. *)
  let rec drive () =
    if (not (link.a.is_idle ())) && Sim.Engine.now engine < deadline then begin
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 1.0) engine;
      drive ()
    end
  in
  drive ();
  (* Let the final acknowledgements drain. *)
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 5.0) engine;
  List.of_seq (Queue.to_seq link.received_at_b)
