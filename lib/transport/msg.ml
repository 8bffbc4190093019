open Sublayer.Machine

let name = "msg"

(* This sublayer's own header (it owns the bits OSR would otherwise own —
   test T3 for a replacement sublayer). *)
type header = { window : int; msg_id : int; frag_off : int; msg_len : int }

let header_bytes = 8

let write_header h w =
  Bitkit.Bitio.Writer.uint16 w h.window;
  Bitkit.Bitio.Writer.uint16 w h.msg_id;
  Bitkit.Bitio.Writer.uint16 w h.frag_off;
  Bitkit.Bitio.Writer.uint16 w h.msg_len

let encode_header h ~payload =
  let w = Bitkit.Bitio.Writer.create () in
  write_header h w;
  Bitkit.Bitio.Writer.bytes w payload;
  Bitkit.Bitio.Writer.contents w

let read_header r =
  let window = Bitkit.Bitio.Reader.uint16 r in
  let msg_id = Bitkit.Bitio.Reader.uint16 r in
  let frag_off = Bitkit.Bitio.Reader.uint16 r in
  let msg_len = Bitkit.Bitio.Reader.uint16 r in
  { window; msg_id; frag_off; msg_len }

let decode_header_slice sl =
  match
    let r = Bitkit.Bitio.Reader.of_slice sl in
    let h = read_header r in
    (h, Bitkit.Bitio.Reader.rest_slice r)
  with
  | v -> Some v
  | exception Bitkit.Bitio.Reader.Truncated -> None

type up_req = [ `Connect | `Listen | `Send of string | `Close ]

type up_ind =
  [ `Established | `Msg of string | `Peer_closed | `Closed | `Reset | `Aborted ]

type down_req = Iface.rd_req
type down_ind = Iface.rd_ind
type timer = Nothing.t

(* An in-progress incoming message. *)
type partial = { p_len : int; mutable p_got : int; p_buf : Bytes.t }

type conn = {
  cc : Cc.instance;
  (* sender: messages pending fragmentation, FIFO *)
  sendq : (int * string) list;  (* (msg_id, remaining bytes from frag_off) *)
  sendq_off : int;              (* frag_off within the head message *)
  next_id : int;
  next_off : int;               (* RD stream offset *)
  acked : int;
  peer_window : int;
  fin_requested : bool;
  fin_sent : bool;
  (* receiver *)
  partials : (int, partial) Hashtbl.t;
  buffered : int;
  advertised : int;
}

type counters = {
  c_messages_sent : Sublayer.Stats.counter;
  c_messages_delivered : Sublayer.Stats.counter;
  c_dropped : Sublayer.Stats.counter;
}

type t = {
  cfg : Config.t;
  now : unit -> float;
  ctrs : counters;
  cc_stats : Sublayer.Stats.scope option;
  sp : Sublayer.Span.ctx;
  pre_sends : string list;  (* reversed *)
  pre_close : bool;
  conn : conn option;
}

let initial ?stats ?cc_stats ?span cfg ~now =
  let sc =
    match stats with Some sc -> sc | None -> Sublayer.Stats.unregistered "msg"
  in
  { cfg; now;
    ctrs =
      { c_messages_sent = Sublayer.Stats.counter sc "messages_sent";
        c_messages_delivered = Sublayer.Stats.counter sc "messages_delivered";
        c_dropped = Sublayer.Stats.counter sc "dropped" };
    cc_stats;
    sp = (match span with Some sp -> sp | None -> Sublayer.Span.disabled name);
    pre_sends = []; pre_close = false; conn = None }

let messages_delivered t = Sublayer.Stats.value t.ctrs.c_messages_delivered
let messages_sent t = Sublayer.Stats.value t.ctrs.c_messages_sent

let stream_finished t =
  match t.conn with
  | None -> false
  | Some c -> c.sendq = [] && c.acked = c.next_off

let my_header c ~msg_id ~frag_off ~msg_len =
  { window = min 0xFFFF c.advertised; msg_id; frag_off; msg_len }

let block c =
  encode_header (my_header c ~msg_id:0 ~frag_off:0 ~msg_len:0) ~payload:""

(* Fragment queued messages into RD segments within the windows. *)
let try_send t c =
  let acts = ref [] in
  let c = ref c in
  let continue = ref true in
  while !continue do
    let cn = !c in
    match cn.sendq with
    | [] -> continue := false
    | (msg_id, original) :: rest ->
        (* A zero-length message still needs a fragment on the wire (RD
           segments carry at least one sequence byte): pad it with one
           byte and signal emptiness with msg_len = 0. *)
        let body = if original = "" then "\000" else original in
        let in_flight = cn.next_off - cn.acked in
        let window =
          int_of_float (Float.min (cn.cc.Cc.window ()) (Float.of_int cn.peer_window))
        in
        let room = window - in_flight in
        let remaining = String.length body - cn.sendq_off in
        let want = min (t.cfg.Config.mss - header_bytes) remaining in
        if want <= 0 && remaining > 0 then continue := false
        else if room < want && in_flight > 0 then continue := false
        else begin
          let fragment = String.sub body cn.sendq_off want in
          let header =
            my_header cn ~msg_id ~frag_off:cn.sendq_off ~msg_len:(String.length original)
          in
          (* Msg replaces OSR at the top of the stack, so it starts the
             packet's wirebuf; RD/CM/DM push below without copying. *)
          let pdu =
            Bitkit.Wirebuf.push
              (Bitkit.Wirebuf.of_string fragment)
              ~owner:"msg" (write_header header)
          in
          if Sublayer.Span.active t.sp then begin
            (* Fragments inherit the message's trace; RD picks it up
               under the local offset key. *)
            let trace =
              Sublayer.Span.trace_of t.sp ~key:("m:" ^ string_of_int msg_id)
            in
            if trace <> 0 then
              Sublayer.Span.bind_local t.sp
                ("off:" ^ string_of_int cn.next_off) trace
          end;
          acts := Down (`Transmit (cn.next_off, want, pdu)) :: !acts;
          let finished_msg = cn.sendq_off + want >= String.length body in
          if finished_msg then
            Sublayer.Span.close t.sp
              ~key:("m:" ^ string_of_int msg_id)
              ~detail:"fragmented" ();
          c :=
            { cn with
              next_off = cn.next_off + want;
              sendq = (if finished_msg then rest else cn.sendq);
              sendq_off = (if finished_msg then 0 else cn.sendq_off + want) }
        end
  done;
  (!c, List.rev !acts)

let maybe_fin c =
  if c.fin_requested && (not c.fin_sent) && c.sendq = [] && c.acked = c.next_off then
    ({ c with fin_sent = true }, [ Down `Close ])
  else (c, [])

let enqueue t c body =
  Sublayer.Stats.incr t.ctrs.c_messages_sent;
  if String.length body > 0xFFFF then invalid_arg "Msg: message too long";
  Sublayer.Span.open_ t.sp
    ~key:("m:" ^ string_of_int c.next_id)
    ~trace:(Sublayer.Span.fresh_trace t.sp) "msg_send";
  { c with sendq = c.sendq @ [ (c.next_id, body) ]; next_id = (c.next_id + 1) land 0xFFFF }

let handle_up_req t (req : up_req) =
  match (req, t.conn) with
  | `Connect, _ -> (t, [ Down `Connect ])
  | `Listen, _ -> (t, [ Down `Listen ])
  | `Send body, None -> ({ t with pre_sends = body :: t.pre_sends }, [])
  | `Send body, Some c ->
      let c = enqueue t c body in
      let c, acts = try_send t c in
      ({ t with conn = Some c }, acts)
  | `Close, None -> ({ t with pre_close = true }, [])
  | `Close, Some c ->
      let c = { c with fin_requested = true } in
      let c, acts = maybe_fin c in
      ({ t with conn = Some c }, acts)

let accept_fragment t c ~frag_trace (h : header) payload =
  let partial =
    match Hashtbl.find_opt c.partials h.msg_id with
    | Some p -> p
    | None ->
        let real_len = if h.msg_len = 0 then 1 else h.msg_len in
        let p = { p_len = real_len; p_got = 0; p_buf = Bytes.make real_len '\000' } in
        Hashtbl.replace c.partials h.msg_id p;
        p
  in
  let n = String.length payload in
  if h.frag_off + n <= Bytes.length partial.p_buf then begin
    Bytes.blit_string payload 0 partial.p_buf h.frag_off n;
    partial.p_got <- partial.p_got + n
  end;
  let reblock c =
    let advertised = min 0xFFFF (max 0 (t.cfg.Config.rcv_buf - c.buffered)) in
    if advertised <> c.advertised then
      ({ c with advertised }, [ Down (`Set_block (block { c with advertised })) ])
    else (c, [])
  in
  if partial.p_got >= partial.p_len then begin
    Hashtbl.remove c.partials h.msg_id;
    Sublayer.Stats.incr t.ctrs.c_messages_delivered;
    Sublayer.Span.instant t.sp ~trace:frag_trace
      ~detail:(Printf.sprintf "msg_id=%d len=%d" h.msg_id h.msg_len)
      "msg_delivered";
    let body = Bytes.to_string partial.p_buf in
    let body = if h.msg_len = 0 then "" else body in
    let c = { c with buffered = max 0 (c.buffered - (partial.p_len - n)) } in
    let c, block_acts = reblock c in
    (c, Up (`Msg body) :: block_acts)
  end
  else begin
    let c = { c with buffered = c.buffered + n } in
    let c, block_acts = reblock c in
    (c, block_acts)
  end

let handle_down_ind t (ind : down_ind) =
  match (ind, t.conn) with
  | `Established, None ->
      let cc = t.cfg.Config.cc.Cc.create ~mss:t.cfg.Config.mss ~now:t.now in
      let cc =
        match t.cc_stats with Some sc -> Cc.instrument sc cc | None -> cc
      in
      let c =
        { cc; sendq = []; sendq_off = 0; next_id = 0; next_off = 0; acked = 0;
          peer_window = 0xFFFF; fin_requested = t.pre_close; fin_sent = false;
          partials = Hashtbl.create 8; buffered = 0;
          advertised = min 0xFFFF t.cfg.Config.rcv_buf }
      in
      let c = List.fold_left (enqueue t) c (List.rev t.pre_sends) in
      let c, send_acts = try_send t c in
      let c, fin_acts = maybe_fin c in
      ( { t with conn = Some c; pre_sends = [] },
        (Up `Established :: Down (`Set_block (block c)) :: send_acts) @ fin_acts )
  | `Established, Some _ -> (t, [])
  | `Segment (offset, pdu), Some c -> (
      match decode_header_slice pdu with
      | None -> drop t.ctrs.c_dropped t
      | Some (h, payload) ->
          let frag_trace =
            Sublayer.Span.take_local t.sp ("off:" ^ string_of_int offset)
          in
          let c = { c with peer_window = h.window } in
          (* App boundary: the fragment materialises to an owned string
             here, the receive path's one copy. *)
          let c, acts =
            accept_fragment t c ~frag_trace h (Bitkit.Slice.to_string payload)
          in
          ({ t with conn = Some c }, acts))
  | `Acked (upto, block_bytes, rtt), Some c ->
      let c =
        match decode_header_slice block_bytes with
        | Some (h, _) -> { c with peer_window = h.window }
        | None -> c
      in
      let bytes = upto - c.acked in
      if bytes > 0 then c.cc.Cc.on_ack ~bytes ~rtt;
      let c = { c with acked = max c.acked upto } in
      let c, send_acts = try_send t c in
      let c, fin_acts = maybe_fin c in
      ({ t with conn = Some c }, send_acts @ fin_acts)
  | `Loss kind, Some c ->
      c.cc.Cc.on_loss kind;
      (t, [])
  | `Peer_fin, Some _ -> (t, [ Up `Peer_closed ])
  | `Closed, _ -> (t, [ Up `Closed ])
  | `Reset, _ ->
      Sublayer.Span.close_all t.sp ~detail:"reset" ();
      ({ t with conn = None }, [ Up `Reset ])
  | `Aborted, _ ->
      Sublayer.Span.close_all t.sp ~detail:"aborted" ();
      ({ t with conn = None }, [ Up `Aborted ])
  | (`Segment _ | `Acked _ | `Loss _ | `Peer_fin), None -> drop t.ctrs.c_dropped t

let handle_timer _ (tm : timer) = Nothing.absurd tm
