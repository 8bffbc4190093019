open Sublayer.Machine

(* Each layer machine wraps its codec with an owned pair of counters —
   the T3 separation applied to observability: the framer's drop count
   lives in the framer, invisible to its neighbours. *)

module Error_detection = struct
  let name = "error-detection"

  type t = {
    det : Detector.t;
    pool : Bitkit.Pool.t option;
    sp : Sublayer.Span.ctx;
    protected : Sublayer.Stats.counter;
    verified : Sublayer.Stats.counter;
    corrupt : Sublayer.Stats.counter;
    copied_trailer : Sublayer.Stats.counter;
  }

  type up_req = Bitkit.Wirebuf.t
  type up_ind = Bitkit.Slice.t
  type down_req = Bitkit.Slice.t
  type down_ind = Bitkit.Slice.t
  type timer = Nothing.t

  let make ?stats ?span ?pool det =
    let scope =
      match stats with
      | Some s -> s
      | None -> Sublayer.Stats.unregistered "detector"
    in
    {
      det;
      pool;
      sp = Option.value span ~default:(Sublayer.Span.disabled name);
      protected = Sublayer.Stats.counter scope "frames_protected";
      verified = Sublayer.Stats.counter scope "frames_verified";
      corrupt = Sublayer.Stats.counter scope "frames_corrupt";
      copied_trailer = Sublayer.Stats.counter scope "copied_trailer_bytes";
    }

  (* Protection appends a trailer over the whole PDU, so this sublayer is
     the transmit path's forced materialisation point: the accumulated
     wirebuf is emitted once, here, with the check bits. Verification is
     the opposite — computed in place over the frame view, returning a
     narrowed slice.

     With a pool, the emit target is a loaned slot and the trailer is the
     chain digest, folded over the header chain and payload in place — no
     intermediate flat string exists, and [copied_trailer] records only
     the trailer bytes this sublayer itself writes. The loan is released
     at end of event; by then framing has moved the bytes into the bit
     domain. *)
  let handle_up_req t pdu =
    Sublayer.Stats.incr t.protected;
    Sublayer.Span.instant t.sp "protect";
    let oh = t.det.Detector.overhead_bytes in
    let pooled =
      match t.pool with
      | None -> None
      | Some pool ->
          let n = Bitkit.Wirebuf.emit_cost pdu in
          let slot = Bitkit.Pool.loan pool ~len:(n + oh) in
          if slot = Bitkit.Pool.no_slot then None
          else begin
            let b = Bitkit.Pool.buffer pool in
            let off = Bitkit.Pool.off pool slot in
            Bitkit.Wirebuf.emit_into pdu b off;
            t.det.Detector.chain_digest_into pdu b (off + n);
            Sublayer.Stats.add t.copied_trailer oh;
            Bitkit.Pool.defer_release pool slot;
            Some (Bitkit.Pool.slice pool slot ~len:(n + oh))
          end
    in
    match pooled with
    | Some frame -> (t, [ Down frame ])
    | None ->
        (* Charge the known emit size directly — bracketing the
           process-global counter would over-count copies other shards
           make concurrently. *)
        Sublayer.Stats.add t.copied_trailer (Bitkit.Wirebuf.copy_cost pdu);
        let emitted = Bitkit.Wirebuf.to_string pdu in
        (t, [ Down (Bitkit.Slice.of_string (t.det.Detector.protect emitted)) ])

  let handle_down_ind t pdu =
    match t.det.Detector.verify_slice pdu with
    | Some payload ->
        Sublayer.Stats.incr t.verified;
        Sublayer.Span.instant t.sp "verify";
        (t, [ Up payload ])
    | None ->
        Sublayer.Span.instant t.sp ~detail:"dropped" "corrupt";
        drop t.corrupt t

  let handle_timer _ t = Nothing.absurd t
end

module Framing = struct
  let name = "framing"

  type t = {
    framer : Framer.t;
    sp : Sublayer.Span.ctx;
    framed : Sublayer.Stats.counter;
    deframed : Sublayer.Stats.counter;
    malformed : Sublayer.Stats.counter;
  }

  type up_req = Bitkit.Slice.t
  type up_ind = Bitkit.Slice.t
  type down_req = Bitkit.Bitseq.t
  type down_ind = Bitkit.Bitseq.t
  type timer = Nothing.t

  let make ?stats ?span framer =
    let scope =
      match stats with
      | Some s -> s
      | None -> Sublayer.Stats.unregistered "framer"
    in
    {
      framer;
      sp = Option.value span ~default:(Sublayer.Span.disabled name);
      framed = Sublayer.Stats.counter scope "frames_framed";
      deframed = Sublayer.Stats.counter scope "frames_deframed";
      malformed = Sublayer.Stats.counter scope "frames_malformed";
    }

  (* Crossing into the bit domain is an inherent materialisation: for a
     whole-string view (the unpooled detector's output) [to_string] is
     free; a pool-slot view pays its length here, once — the data path's
     one remaining byte copy when pooling is on. *)
  let handle_up_req t pdu =
    Sublayer.Stats.incr t.framed;
    Sublayer.Span.instant t.sp "frame";
    (t, [ Down (t.framer.Framer.frame (Bitkit.Slice.to_string pdu)) ])

  let handle_down_ind t bits =
    match t.framer.Framer.deframe bits with
    | Some pdu ->
        Sublayer.Stats.incr t.deframed;
        Sublayer.Span.instant t.sp "deframe";
        (* Deframing just materialised bytes out of the bit domain;
           wrapping them as a whole-string view costs nothing, and every
           sublayer above narrows this one buffer. *)
        (t, [ Up (Bitkit.Slice.of_string pdu) ])
    | None ->
        Sublayer.Span.instant t.sp ~detail:"dropped" "malformed";
        drop t.malformed t

  let handle_timer _ t = Nothing.absurd t
end

module Line_coding = struct
  let name = "line-coding"

  type t = {
    code : Linecode.t;
    sp : Sublayer.Span.ctx;
    encoded : Sublayer.Stats.counter;
    decoded : Sublayer.Stats.counter;
    illegal : Sublayer.Stats.counter;
  }

  type up_req = Bitkit.Bitseq.t
  type up_ind = Bitkit.Bitseq.t
  type down_req = Bitkit.Bitseq.t
  type down_ind = Bitkit.Bitseq.t
  type timer = Nothing.t

  let make ?stats ?span code =
    let scope =
      match stats with
      | Some s -> s
      | None -> Sublayer.Stats.unregistered "linecode"
    in
    {
      code;
      sp = Option.value span ~default:(Sublayer.Span.disabled name);
      encoded = Sublayer.Stats.counter scope "blocks_encoded";
      decoded = Sublayer.Stats.counter scope "blocks_decoded";
      illegal = Sublayer.Stats.counter scope "illegal_symbols";
    }

  let handle_up_req t bits =
    Sublayer.Stats.incr t.encoded;
    Sublayer.Span.instant t.sp "encode";
    (t, [ Down (t.code.Linecode.encode bits) ])

  let handle_down_ind t symbols =
    match t.code.Linecode.decode symbols with
    | Some bits ->
        Sublayer.Stats.incr t.decoded;
        Sublayer.Span.instant t.sp "decode";
        (t, [ Up bits ])
    | None ->
        Sublayer.Span.instant t.sp ~detail:"dropped" "illegal";
        drop t.illegal t

  let handle_timer _ t = Nothing.absurd t
end
