open Sublayer.Machine

let name = "cm"

type phase =
  | Closed
  | Listen
  | Syn_sent of int
  | Syn_rcvd of int
  | Established
  | Fin_wait_1 of int
  | Fin_wait_2
  | Closing of int
  | Time_wait
  | Close_wait
  | Last_ack of int

type counters = {
  c_established : Sublayer.Stats.counter;
  c_resets_sent : Sublayer.Stats.counter;
  c_resets_received : Sublayer.Stats.counter;
  c_handshake_retx : Sublayer.Stats.counter;
  c_dropped : Sublayer.Stats.counter;
}

type t = {
  cfg : Config.t;
  isn : Isn.t;
  local_port : int;
  remote_port : int;
  phase : phase;
  isn_local : int option;
  isn_remote : int option;
  ctrs : counters;
  sp : Sublayer.Span.ctx;
}

type up_req = Iface.cm_req
type up_ind = Iface.cm_ind
type down_req = Bitkit.Wirebuf.t
type down_ind = Bitkit.Slice.t
type timer = Handshake | Fin_retx | Time_wait_expiry

let initial ?stats ?span cfg ~isn ~local_port ~remote_port =
  let sc =
    match stats with Some sc -> sc | None -> Sublayer.Stats.unregistered "cm"
  in
  let sp =
    match span with Some sp -> sp | None -> Sublayer.Span.disabled name
  in
  let ctrs =
    {
      c_established = Sublayer.Stats.counter sc "established";
      c_resets_sent = Sublayer.Stats.counter sc "resets_sent";
      c_resets_received = Sublayer.Stats.counter sc "resets_received";
      c_handshake_retx = Sublayer.Stats.counter sc "handshake_retx";
      c_dropped = Sublayer.Stats.counter sc "segments_dropped";
    }
  in
  { cfg; isn; local_port; remote_port; phase = Closed; isn_local = None;
    isn_remote = None; ctrs; sp }

let phase t = t.phase

let phase_name t =
  match t.phase with
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_sent _ -> "SYN_SENT"
  | Syn_rcvd _ -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 _ -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Closing _ -> "CLOSING"
  | Time_wait -> "TIME_WAIT"
  | Close_wait -> "CLOSE_WAIT"
  | Last_ack _ -> "LAST_ACK"

let isns t =
  match (t.isn_local, t.isn_remote) with
  | Some l, Some r -> Some (l, r)
  | _ -> None

(* Control PDUs carry no payload; only CM's own header. *)
let control t flags =
  let header =
    { Segment.flags;
      isn_local = Option.value ~default:0 t.isn_local;
      isn_remote = Option.value ~default:0 t.isn_remote }
  in
  Down (Bitkit.Wirebuf.push Bitkit.Wirebuf.empty ~owner:"cm" (Segment.write_cm header))

let syn = { Segment.no_cm_flags with syn = true }
let syn_ack = { Segment.no_cm_flags with syn = true; ack = true }
let bare_ack = { Segment.no_cm_flags with ack = true }
let fin = { Segment.no_cm_flags with fin = true }
let rst = { Segment.no_cm_flags with rst = true }

let backoff base n = base *. (2. ** Float.of_int (min n 6))

(* Abort the connection locally and tell the peer. *)
let abort t reason =
  Sublayer.Stats.incr t.ctrs.c_resets_sent;
  Sublayer.Span.instant t.sp ~detail:reason "rst_out";
  Sublayer.Span.close_all t.sp ~detail:"reset" ();
  ( { t with phase = Closed },
    [ control t rst; Cancel_timer Handshake; Cancel_timer Fin_retx; Up `Reset ] )

(* Total: a handshake that reaches Established without both ISNs recorded
   (a peer feeding us a malformed handshake) aborts with an RST instead of
   crashing the host.  [t] already has [phase = Established] at the call
   sites; [abort] overrides it back to Closed. *)
let establish t pre_acts post_acts =
  match isns t with
  | Some (l, r) ->
      Sublayer.Stats.incr t.ctrs.c_established;
      Sublayer.Span.close t.sp ~key:"hs" ~detail:"established" ();
      (t, pre_acts @ (Up (`Established (l, r)) :: post_acts))
  | None -> abort t "handshake incoherent (missing ISN); reset"

let handle_up_req t (req : up_req) =
  match (req, t.phase) with
  | `Connect, Closed ->
      let isn_local = t.isn.Isn.next ~local_port:t.local_port ~remote_port:t.remote_port in
      let t = { t with phase = Syn_sent 0; isn_local = Some isn_local } in
      Sublayer.Span.open_ t.sp ~key:"hs"
        ~trace:(Sublayer.Span.fresh_trace t.sp) "handshake";
      (t, [ control t syn; Set_timer (Handshake, t.cfg.Config.syn_rto) ])
  | `Listen, Closed -> ({ t with phase = Listen }, [])
  | `Close, Established ->
      let t = { t with phase = Fin_wait_1 0 } in
      Sublayer.Span.open_ t.sp ~key:"td"
        ~trace:(Sublayer.Span.fresh_trace t.sp) "teardown";
      (t, [ control t fin; Set_timer (Fin_retx, t.cfg.Config.syn_rto) ])
  | `Close, Close_wait ->
      let t = { t with phase = Last_ack 0 } in
      Sublayer.Span.open_ t.sp ~key:"td"
        ~trace:(Sublayer.Span.fresh_trace t.sp) "teardown";
      (t, [ control t fin; Set_timer (Fin_retx, t.cfg.Config.syn_rto) ])
  | `Close, (Closed | Listen) -> ({ t with phase = Closed }, [ Up `Closed ])
  | `Close, _ -> (t, [])
  | `Abort, (Closed | Listen) -> ({ t with phase = Closed }, [])
  | `Abort, _ ->
      (* RD gave up (or the application demanded an abort): RST the peer
         and drop every timer. No upward indication — the requester is
         the one who initiated the abort. *)
      Sublayer.Stats.incr t.ctrs.c_resets_sent;
      Sublayer.Span.instant t.sp ~detail:"local abort" "rst_out";
      Sublayer.Span.close_all t.sp ~detail:"reset" ();
      ( { t with phase = Closed },
        [ control t rst; Cancel_timer Handshake; Cancel_timer Fin_retx;
          Cancel_timer Time_wait_expiry ] )
  | `Pdu payload, (Established | Fin_wait_1 _ | Fin_wait_2 | Close_wait | Closing _) ->
      (* Data path: stamp the connection's identity on the segment. *)
      let header =
        { Segment.flags = Segment.no_cm_flags;
          isn_local = Option.get t.isn_local;
          isn_remote = Option.get t.isn_remote }
      in
      (t, [ Down (Bitkit.Wirebuf.push payload ~owner:"cm" (Segment.write_cm header)) ])
  | `Pdu _, _ -> drop t.ctrs.c_dropped t
  | (`Connect | `Listen), _ -> (t, [])

(* Does an incoming non-SYN segment belong to this incarnation? *)
let identity_ok t (cm : Segment.cm) =
  match (t.isn_local, t.isn_remote) with
  | Some l, Some r -> cm.Segment.isn_local = r && cm.Segment.isn_remote = l
  | Some l, None -> cm.Segment.isn_remote = l
  | _ -> false

let handle_down_ind t pdu =
  match Segment.decode_cm_slice pdu with
  | None -> drop t.ctrs.c_dropped t
  | Some (cm, payload) -> (
      let f = cm.Segment.flags in
      if f.Segment.rst then begin
        let plausible =
          identity_ok t cm || match t.phase with Syn_sent _ -> true | _ -> false
        in
        match t.phase with
        | Closed | Listen -> drop t.ctrs.c_dropped t
        | _ when plausible ->
            Sublayer.Stats.incr t.ctrs.c_resets_received;
            Sublayer.Span.instant t.sp "rst_in";
            Sublayer.Span.close_all t.sp ~detail:"reset" ();
            ( { t with phase = Closed },
              [ Cancel_timer Handshake; Cancel_timer Fin_retx; Up `Reset ] )
        | _ -> drop t.ctrs.c_dropped t
      end
      else
        match (t.phase, f.Segment.syn, f.Segment.ack, f.Segment.fin) with
        (* --- Handshake --- *)
        | Listen, true, false, false ->
            let isn_local =
              t.isn.Isn.next ~local_port:t.local_port ~remote_port:t.remote_port
            in
            let t =
              { t with phase = Syn_rcvd 0; isn_local = Some isn_local;
                isn_remote = Some cm.Segment.isn_local }
            in
            Sublayer.Span.open_ t.sp ~key:"hs"
              ~trace:(Sublayer.Span.fresh_trace t.sp) "handshake";
            (t, [ control t syn_ack; Set_timer (Handshake, t.cfg.Config.syn_rto) ])
        | Syn_sent _, true, true, false when cm.Segment.isn_remote = Option.get t.isn_local ->
            let t = { t with phase = Established; isn_remote = Some cm.Segment.isn_local } in
            establish t [ control t bare_ack; Cancel_timer Handshake ] []
        | Syn_sent _, true, false, false ->
            (* Simultaneous open. *)
            let t = { t with phase = Syn_rcvd 0; isn_remote = Some cm.Segment.isn_local } in
            (t, [ control t syn_ack; Set_timer (Handshake, t.cfg.Config.syn_rto) ])
        | Syn_rcvd _, false, true, false when identity_ok t cm ->
            let t = { t with phase = Established } in
            establish t [ Cancel_timer Handshake ] []
        | Syn_rcvd _, true, true, false when identity_ok t cm ->
            (* Simultaneous open completing. *)
            let t = { t with phase = Established } in
            establish t [ control t bare_ack; Cancel_timer Handshake ] []
        | Syn_rcvd _, true, false, false ->
            (* Duplicate SYN: repeat our SYN|ACK. *)
            (t, [ control t syn_ack ])
        | Established, true, true, false when identity_ok t cm ->
            (* Our final ACK was lost; repeat it. *)
            (t, [ control t bare_ack ])
        (* --- Data path: a segment that was received in SYN_RCVD also
           proves the peer got our SYN|ACK (its identity embeds our ISN). --- *)
        | Syn_rcvd _, false, false, false when identity_ok t cm ->
            let t = { t with phase = Established } in
            establish t [ Cancel_timer Handshake ] [ Up (`Pdu payload) ]
        | (Established | Fin_wait_1 _ | Fin_wait_2 | Closing _ | Close_wait), false, false, false
          when identity_ok t cm ->
            (t, [ Up (`Pdu payload) ])
        (* --- Teardown --- *)
        | Established, false, false, true when identity_ok t cm ->
            let t = { t with phase = Close_wait } in
            (t, [ control t bare_ack; Up `Peer_fin ])
        | Fin_wait_1 _, false, true, false when identity_ok t cm ->
            (* Arm a FIN_WAIT_2 idle timeout (as Linux does) so a peer
               that dies before sending its FIN cannot hang us forever —
               the teardown model finds this deadlock otherwise. *)
            ( { t with phase = Fin_wait_2 },
              [ Cancel_timer Fin_retx;
                Set_timer (Time_wait_expiry, 4. *. t.cfg.Config.msl) ] )
        | Fin_wait_1 n, false, false, true when identity_ok t cm ->
            (* Simultaneous close; keep retransmitting our FIN. *)
            ({ t with phase = Closing n }, [ control t bare_ack; Up `Peer_fin ])
        | Fin_wait_2, false, false, true when identity_ok t cm ->
            let t = { t with phase = Time_wait } in
            Sublayer.Span.close t.sp ~key:"td" ~detail:"time_wait" ();
            ( t,
              [ control t bare_ack; Up `Peer_fin;
                Set_timer (Time_wait_expiry, 2. *. t.cfg.Config.msl) ] )
        | Closing _, false, true, false when identity_ok t cm ->
            Sublayer.Span.close t.sp ~key:"td" ~detail:"time_wait" ();
            ( { t with phase = Time_wait },
              [ Cancel_timer Fin_retx; Set_timer (Time_wait_expiry, 2. *. t.cfg.Config.msl) ] )
        | Last_ack _, false, true, false when identity_ok t cm ->
            Sublayer.Span.close t.sp ~key:"td" ~detail:"closed" ();
            ( { t with phase = Closed },
              [ Cancel_timer Fin_retx; Up `Closed ] )
        | Time_wait, false, false, true when identity_ok t cm ->
            (* Retransmitted FIN: re-ack and extend the quiet period. *)
            (t, [ control t bare_ack; Set_timer (Time_wait_expiry, 2. *. t.cfg.Config.msl) ])
        | (Close_wait | Last_ack _ | Closing _), false, false, true when identity_ok t cm ->
            (* Duplicate FIN. *)
            (t, [ control t bare_ack ])
        | _ -> drop t.ctrs.c_dropped t)

let handle_timer t (tm : timer) =
  match (tm, t.phase) with
  | Handshake, Syn_sent n ->
      if n >= t.cfg.Config.syn_retries then abort t "handshake gave up"
      else begin
        Sublayer.Stats.incr t.ctrs.c_handshake_retx;
        Sublayer.Span.child t.sp ~key:"hs" ~detail:"syn" "retx";
        ( { t with phase = Syn_sent (n + 1) },
          [ control t syn; Set_timer (Handshake, backoff t.cfg.Config.syn_rto (n + 1)) ] )
      end
  | Handshake, Syn_rcvd n ->
      if n >= t.cfg.Config.syn_retries then abort t "handshake gave up"
      else begin
        Sublayer.Stats.incr t.ctrs.c_handshake_retx;
        Sublayer.Span.child t.sp ~key:"hs" ~detail:"synack" "retx";
        ( { t with phase = Syn_rcvd (n + 1) },
          [ control t syn_ack; Set_timer (Handshake, backoff t.cfg.Config.syn_rto (n + 1)) ] )
      end
  | Fin_retx, Fin_wait_1 n ->
      if n >= t.cfg.Config.fin_retries then begin
        Sublayer.Span.close t.sp ~key:"td" ~detail:"gave_up" ();
        ({ t with phase = Closed }, [ Up `Closed ])
      end
      else
        ( { t with phase = Fin_wait_1 (n + 1) },
          [ control t fin; Set_timer (Fin_retx, backoff t.cfg.Config.syn_rto (n + 1)) ] )
  | Fin_retx, Closing n ->
      (* A FIN lost during simultaneous close must still be repaired
         here, or both peers deadlock in CLOSING / FIN_WAIT_2. *)
      if n >= t.cfg.Config.fin_retries then begin
        Sublayer.Span.close t.sp ~key:"td" ~detail:"gave_up" ();
        ({ t with phase = Closed }, [ Up `Closed ])
      end
      else
        ( { t with phase = Closing (n + 1) },
          [ control t fin; Set_timer (Fin_retx, backoff t.cfg.Config.syn_rto (n + 1)) ] )
  | Fin_retx, Last_ack n ->
      if n >= t.cfg.Config.fin_retries then begin
        Sublayer.Span.close t.sp ~key:"td" ~detail:"gave_up" ();
        ({ t with phase = Closed }, [ Up `Closed ])
      end
      else
        ( { t with phase = Last_ack (n + 1) },
          [ control t fin; Set_timer (Fin_retx, backoff t.cfg.Config.syn_rto (n + 1)) ] )
  | Time_wait_expiry, Time_wait -> ({ t with phase = Closed }, [ Up `Closed ])
  | Time_wait_expiry, Fin_wait_2 ->
      Sublayer.Span.close t.sp ~key:"td" ~detail:"idle_timeout" ();
      ({ t with phase = Closed }, [ Up `Closed ])
  | (Handshake | Fin_retx | Time_wait_expiry), _ -> (t, [])
