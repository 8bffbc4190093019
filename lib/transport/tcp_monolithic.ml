(* A deliberately lwIP-shaped implementation: one PCB, one big input
   function, shared mutable state throughout. See the .mli for why. *)

type state =
  | CLOSED
  | LISTEN
  | SYN_SENT
  | SYN_RCVD
  | ESTABLISHED
  | FIN_WAIT_1
  | FIN_WAIT_2
  | CLOSING
  | TIME_WAIT
  | CLOSE_WAIT
  | LAST_ACK

type unacked = {
  u_seq : int;  (* absolute, unbounded *)
  u_len : int;  (* sequence-space length (payload, +1 if FIN/SYN) *)
  u_payload : string;
  u_flags : Wire.flags;
  mutable u_sent_at : float;
  mutable u_retx : bool;
}

type t = {
  engine : Sim.Engine.t;
  cfg : Config.t;
  isn_gen : Isn.t;
  transmit : string -> unit;
  events : Iface.app_ind -> unit;
  cc : Cc.instance;
  (* --- the PCB: every function below reads and writes these fields --- *)
  mutable state : state;
  mutable local_port : int;
  mutable remote_port : int;
  mutable iss : int;
  mutable irs : int;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_wnd : int;
  mutable rcv_nxt : int;
  mutable rcv_wnd : int;
  mutable unsent : string list;  (* reversed chunks *)
  mutable unsent_bytes : int;
  mutable unacked : unacked list;  (* ascending seq *)
  mutable reasm : (int * string) list;  (* absolute seq, ascending *)
  mutable dupacks : int;
  mutable recover : int;
  mutable srtt : float option;
  mutable rttvar : float;
  mutable rto : float;
  mutable rto_timer : Sim.Engine.handle option;
  mutable misc_timer : Sim.Engine.handle option;  (* handshake / time-wait *)
  mutable persist_timer : Sim.Engine.handle option;
  mutable unread : int;  (* delivered, not yet consumed by the app *)
  mutable hs_retries : int;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  mutable established_signalled : bool;
  mutable segments_sent : int;
  mutable retransmissions : int;
}

let state_name t =
  match t.state with
  | CLOSED -> "CLOSED" | LISTEN -> "LISTEN" | SYN_SENT -> "SYN_SENT"
  | SYN_RCVD -> "SYN_RCVD" | ESTABLISHED -> "ESTABLISHED"
  | FIN_WAIT_1 -> "FIN_WAIT_1" | FIN_WAIT_2 -> "FIN_WAIT_2"
  | CLOSING -> "CLOSING" | TIME_WAIT -> "TIME_WAIT"
  | CLOSE_WAIT -> "CLOSE_WAIT" | LAST_ACK -> "LAST_ACK"

let create engine cfg ~local_port ~remote_port ~transmit ~events =
  let now () = Sim.Engine.now engine in
  { engine; cfg; isn_gen = Config.make_isn cfg engine; transmit; events;
    cc = cfg.Config.cc.Cc.create ~mss:cfg.Config.mss ~now;
    state = CLOSED; local_port; remote_port; iss = 0; irs = 0; snd_una = 0;
    snd_nxt = 0; snd_wnd = 0xFFFF; rcv_nxt = 0; rcv_wnd = min 0xFFFF cfg.Config.rcv_buf;
    unsent = []; unsent_bytes = 0; unacked = []; reasm = []; dupacks = 0; recover = 0;
    srtt = None; rttvar = 0.; rto = cfg.Config.rto_init; rto_timer = None;
    misc_timer = None; persist_timer = None; unread = 0; hs_retries = 0;
    fin_queued = false; fin_sent = false;
    established_signalled = false; segments_sent = 0; retransmissions = 0 }

let stream_finished t = t.unsent = [] && List.for_all (fun u -> u.u_payload = "") t.unacked

(* Link death: drop the PCB without wire traffic — cancel all three
   timers (rto, handshake/time-wait, persist) and close the state
   machine so nothing re-arms them. *)
let abort t =
  (match t.rto_timer with Some h -> Sim.Engine.cancel h | None -> ());
  (match t.misc_timer with Some h -> Sim.Engine.cancel h | None -> ());
  (match t.persist_timer with Some h -> Sim.Engine.cancel h | None -> ());
  t.rto_timer <- None;
  t.misc_timer <- None;
  t.persist_timer <- None;
  t.unsent <- [];
  t.unsent_bytes <- 0;
  t.unacked <- [];
  t.state <- CLOSED
let retransmissions t = t.retransmissions
let segments_sent t = t.segments_sent
let cwnd t = t.cc.Cc.window ()
let srtt t = t.srtt

(* --- output helpers --- *)

let send_segment t ?(payload = "") ?(flags = Wire.no_flags) seq =
  let flags = { flags with Wire.ack = flags.Wire.ack || t.state <> SYN_SENT && t.state <> CLOSED && t.state <> LISTEN } in
  let header =
    { Wire.src_port = t.local_port; dst_port = t.remote_port;
      seq = seq land 0xFFFFFFFF;
      ack = (if flags.Wire.ack then t.rcv_nxt land 0xFFFFFFFF else 0);
      flags; window = t.rcv_wnd }
  in
  t.segments_sent <- t.segments_sent + 1;
  t.transmit (Wire.encode header ~payload)

let cancel_timer h = match h with Some handle -> Sim.Engine.cancel handle | None -> ()

let update_rcv_wnd t =
  t.rcv_wnd <- max 0 (min 0xFFFF (t.cfg.Config.rcv_buf - t.unread))

let rec arm_rto t =
  cancel_timer t.rto_timer;
  t.rto_timer <- Some (Sim.Engine.schedule t.engine ~after:t.rto (fun () -> on_rto t))

and on_rto t =
  t.rto_timer <- None;
  match t.unacked with
  | [] -> ()
  | u :: _ ->
      t.retransmissions <- t.retransmissions + 1;
      u.u_retx <- true;
      u.u_sent_at <- Sim.Engine.now t.engine;
      t.rto <- Float.min (2. *. t.rto) t.cfg.Config.rto_max;
      t.cc.Cc.on_loss Cc.Timeout;
      send_segment t ~payload:u.u_payload ~flags:u.u_flags u.u_seq;
      arm_rto t

let queue_and_send t ?(payload = "") ?(flags = Wire.no_flags) () =
  let len = String.length payload + (if flags.Wire.syn || flags.Wire.fin then 1 else 0) in
  let u =
    { u_seq = t.snd_nxt; u_len = len; u_payload = payload; u_flags = flags;
      u_sent_at = Sim.Engine.now t.engine; u_retx = false }
  in
  t.unacked <- t.unacked @ [ u ];
  send_segment t ~payload ~flags t.snd_nxt;
  t.snd_nxt <- t.snd_nxt + len;
  if t.rto_timer = None then arm_rto t

(* Move bytes from unsent to the wire within both windows; append the FIN
   once the stream drains. Window arithmetic mixes the congestion window
   (cc), the peer window (snd_wnd) and reliability state (snd_nxt,
   snd_una) — the entanglement §2.3 describes. *)
let rec arm_persist t =
  if t.persist_timer = None then
    t.persist_timer <-
      Some
        (Sim.Engine.schedule t.engine ~after:0.5 (fun () ->
             t.persist_timer <- None;
             (* 1-byte zero-window probe *)
             if t.snd_wnd > 0 then try_output t
             else if t.snd_wnd = 0 && t.snd_nxt = t.snd_una && t.unsent_bytes > 0 then begin
               let probe, rest =
                 match List.rev t.unsent with
                 | c :: rest ->
                     ( String.sub c 0 1,
                       List.rev
                         (if String.length c > 1 then
                            String.sub c 1 (String.length c - 1) :: rest
                          else rest) )
                 | [] -> ("", [])
               in
               if probe <> "" then begin
                 t.unsent <- rest;
                 t.unsent_bytes <- t.unsent_bytes - 1;
                 queue_and_send t ~payload:probe ()
               end;
               arm_persist t
             end))

and try_output t =
  match t.state with
  | ESTABLISHED | CLOSE_WAIT | FIN_WAIT_1 | CLOSING | LAST_ACK -> (
      let in_flight = t.snd_nxt - t.snd_una in
      let window = int_of_float (Float.min (t.cc.Cc.window ()) (Float.of_int t.snd_wnd)) in
      let room = window - in_flight in
      let want = min t.cfg.Config.mss t.unsent_bytes in
      if want > 0 && t.snd_wnd = 0 then begin
        (* zero window: hold data, keep probing *)
        if in_flight = 0 then arm_persist t
      end
      else if want > 0 && (room >= want || in_flight = 0) then begin
        (* take [want] bytes from unsent *)
        let chunks = List.rev t.unsent in
        let buf = Buffer.create want in
        let rec take chunks need =
          match chunks with
          | [] -> []
          | c :: rest ->
              if need = 0 then chunks
              else if String.length c <= need then begin
                Buffer.add_string buf c;
                take rest (need - String.length c)
              end
              else begin
                Buffer.add_substring buf c 0 need;
                String.sub c need (String.length c - need) :: rest
              end
        in
        let rest = take chunks want in
        t.unsent <- List.rev rest;
        t.unsent_bytes <- t.unsent_bytes - want;
        queue_and_send t ~payload:(Buffer.contents buf) ();
        try_output t
      end
      else if
        t.fin_queued && (not t.fin_sent) && t.unsent_bytes = 0
        && t.snd_nxt = t.snd_una + List.fold_left (fun a u -> a + u.u_len) 0 t.unacked
        && List.for_all (fun u -> not u.u_flags.Wire.fin) t.unacked
      then begin
        t.fin_sent <- true;
        (match t.state with
        | ESTABLISHED -> t.state <- FIN_WAIT_1
        | CLOSE_WAIT -> t.state <- LAST_ACK
        | _ -> ());
        queue_and_send t ~flags:{ Wire.no_flags with fin = true; ack = true } ()
      end)
  | _ -> ()

(* --- API --- *)

let read t n =
  t.unread <- max 0 (t.unread - n);
  let before = t.rcv_wnd in
  update_rcv_wnd t;
  (* a window reopening must be announced or the stalled peer never
     learns (it has nothing to piggyback on) *)
  if before < t.cfg.Config.mss && t.rcv_wnd >= t.cfg.Config.mss
     && (t.state <> CLOSED && t.state <> LISTEN && t.state <> SYN_SENT)
  then send_segment t ~flags:{ Wire.no_flags with ack = true } t.snd_nxt

let connect t =
  t.iss <- t.isn_gen.Isn.next ~local_port:t.local_port ~remote_port:t.remote_port;
  t.snd_una <- t.iss;
  t.snd_nxt <- t.iss;
  t.state <- SYN_SENT;
  queue_and_send t ~flags:{ Wire.no_flags with syn = true } ()

let listen t = t.state <- LISTEN

let write t s =
  if String.length s > 0 then begin
    t.unsent <- s :: t.unsent;
    t.unsent_bytes <- t.unsent_bytes + String.length s;
    try_output t
  end

let close t =
  t.fin_queued <- true;
  try_output t

let enter_time_wait t =
  t.state <- TIME_WAIT;
  cancel_timer t.misc_timer;
  t.misc_timer <-
    Some
      (Sim.Engine.schedule t.engine ~after:(2. *. t.cfg.Config.msl) (fun () ->
           t.state <- CLOSED;
           t.events `Closed))

let signal_established t =
  if not t.established_signalled then begin
    t.established_signalled <- true;
    t.events `Established
  end

let update_rtt t sample =
  let srtt, rttvar =
    match t.srtt with
    | None -> (sample, sample /. 2.)
    | Some srtt ->
        let err = sample -. srtt in
        (srtt +. (0.125 *. err), t.rttvar +. (0.25 *. (Float.abs err -. t.rttvar)))
  in
  t.srtt <- Some srtt;
  t.rttvar <- rttvar;
  t.rto <-
    Float.min t.cfg.Config.rto_max (Float.max t.cfg.Config.rto_min (srtt +. (4. *. rttvar)))

(* --- the big input function (tcp_input, tcp_process and tcp_receive all
   in one, as in the pseudocode on p.948 of TCP/IP Illustrated vol 2) --- *)

let from_wire t wire =
  match Wire.decode wire with
  | None -> ()
  | Some (h, payload) ->
      (* demultiplexing check (DM's job, inline here) *)
      if h.Wire.dst_port <> t.local_port || h.Wire.src_port <> t.remote_port then ()
      else begin
        let f = h.Wire.flags in
        if f.Wire.rst then begin
          if t.state <> CLOSED && t.state <> LISTEN then begin
            t.state <- CLOSED;
            cancel_timer t.rto_timer;
            cancel_timer t.misc_timer;
            t.events `Reset
          end
        end
        else begin
          match t.state with
          | CLOSED -> ()
          | LISTEN ->
              if f.Wire.syn then begin
                t.irs <- h.Wire.seq;
                t.rcv_nxt <- h.Wire.seq + 1;
                t.iss <-
                  t.isn_gen.Isn.next ~local_port:t.local_port ~remote_port:t.remote_port;
                t.snd_una <- t.iss;
                t.snd_nxt <- t.iss;
                t.state <- SYN_RCVD;
                queue_and_send t ~flags:{ Wire.no_flags with syn = true; ack = true } ()
              end
          | SYN_SENT ->
              if f.Wire.syn && f.Wire.ack then begin
                let ack =
                  Sublayer.Seqspace.reconstruct Iface.seq32 ~reference:(t.iss + 1)
                    h.Wire.ack
                in
                if ack = t.iss + 1 then begin
                  t.irs <- h.Wire.seq;
                  t.rcv_nxt <- h.Wire.seq + 1;
                  t.snd_una <- ack;
                  t.unacked <- [];
                  cancel_timer t.rto_timer;
                  t.rto_timer <- None;
                  t.snd_wnd <- h.Wire.window;
                  t.state <- ESTABLISHED;
                  send_segment t ~flags:{ Wire.no_flags with ack = true } t.snd_nxt;
                  signal_established t;
                  try_output t
                end
              end
              else if f.Wire.syn then begin
                (* simultaneous open *)
                t.irs <- h.Wire.seq;
                t.rcv_nxt <- h.Wire.seq + 1;
                t.state <- SYN_RCVD;
                send_segment t ~flags:{ Wire.no_flags with syn = true; ack = true } t.iss
              end
          | _ ->
              (* states with an established identity *)
              let seq_abs =
                Sublayer.Seqspace.reconstruct Iface.seq32 ~reference:t.rcv_nxt h.Wire.seq
              in
              (* duplicate SYN|ACK to an established connection: re-ack *)
              if f.Wire.syn then
                send_segment t ~flags:{ Wire.no_flags with ack = true } t.snd_nxt
              else begin
                (* --- ACK processing --- *)
                (if f.Wire.ack then begin
                   let ack_abs =
                     Sublayer.Seqspace.reconstruct Iface.seq32 ~reference:t.snd_una
                       h.Wire.ack
                   in
                   let window_was_closed = t.snd_wnd = 0 in
                   t.snd_wnd <- h.Wire.window;
                   (* A pure window update acknowledges nothing; restart
                      the output path explicitly or the sender stays
                      stalled after a zero-window episode. *)
                   if window_was_closed && t.snd_wnd > 0 then try_output t;
                   if t.state = SYN_RCVD && ack_abs >= t.iss + 1 then begin
                     t.state <- ESTABLISHED;
                     (match t.unacked with
                     | u :: rest when u.u_flags.Wire.syn ->
                         t.unacked <- rest;
                         if rest = [] then begin
                           cancel_timer t.rto_timer;
                           t.rto_timer <- None
                         end
                     | _ -> ());
                     t.snd_una <- max t.snd_una (t.iss + 1);
                     signal_established t
                   end;
                   if ack_abs > t.snd_una && ack_abs <= t.snd_nxt then begin
                     let bytes = ack_abs - t.snd_una in
                     (* trim unacked; collect an rtt sample *)
                     let newly, remaining =
                       List.partition (fun u -> u.u_seq + u.u_len <= ack_abs) t.unacked
                     in
                     let fin_acked = List.exists (fun u -> u.u_flags.Wire.fin) newly in
                     List.iter
                       (fun u ->
                         if not u.u_retx then
                           update_rtt t (Sim.Engine.now t.engine -. u.u_sent_at))
                       newly;
                     t.unacked <- remaining;
                     t.snd_una <- ack_abs;
                     t.dupacks <- 0;
                     (* clear exponential backoff on forward progress *)
                     (match t.srtt with
                     | Some srtt ->
                         t.rto <-
                           Float.min t.cfg.Config.rto_max
                             (Float.max t.cfg.Config.rto_min (srtt +. (4. *. t.rttvar)))
                     | None -> t.rto <- t.cfg.Config.rto_init);
                     t.cc.Cc.on_ack ~bytes ~rtt:None;
                     if remaining = [] then begin
                       cancel_timer t.rto_timer;
                       t.rto_timer <- None
                     end
                     else arm_rto t;
                     if fin_acked then begin
                       match t.state with
                       | FIN_WAIT_1 -> t.state <- FIN_WAIT_2
                       | CLOSING -> enter_time_wait t
                       | LAST_ACK ->
                           t.state <- CLOSED;
                           cancel_timer t.rto_timer;
                           t.events `Closed
                       | _ -> ()
                     end;
                     try_output t
                   end
                   else if
                     ack_abs = t.snd_una && t.unacked <> [] && payload = ""
                     && not f.Wire.fin
                   then begin
                     t.dupacks <- t.dupacks + 1;
                     if
                       t.dupacks = t.cfg.Config.dupack_threshold
                       && t.snd_una >= t.recover
                     then begin
                       match t.unacked with
                       | u :: _ ->
                           t.retransmissions <- t.retransmissions + 1;
                           u.u_retx <- true;
                           u.u_sent_at <- Sim.Engine.now t.engine;
                           t.cc.Cc.on_loss Cc.Dup_ack;
                           t.recover <- t.snd_nxt;
                           t.dupacks <- 0;
                           send_segment t ~payload:u.u_payload ~flags:u.u_flags u.u_seq;
                           arm_rto t
                       | [] -> ()
                     end
                   end
                 end);
                (* --- data processing --- *)
                let len = String.length payload in
                (if len > 0 then begin
                   if seq_abs = t.rcv_nxt then begin
                     t.rcv_nxt <- t.rcv_nxt + len;
                     t.unread <- t.unread + len;
                     t.events (`Data (Bitkit.Slice.of_string payload));
                     (* drain reassembly *)
                     let rec drain () =
                       match t.reasm with
                       | (s, p) :: rest when s = t.rcv_nxt ->
                           t.reasm <- rest;
                           t.rcv_nxt <- t.rcv_nxt + String.length p;
                           t.unread <- t.unread + String.length p;
                           t.events (`Data (Bitkit.Slice.of_string p));
                           drain ()
                       | (s, p) :: rest when s < t.rcv_nxt ->
                           (* overlap: should not happen with stable
                              segmentation; drop the stale buffer *)
                           ignore p;
                           t.reasm <- rest;
                           drain ()
                       | _ -> ()
                     in
                     drain ()
                   end
                   else if seq_abs > t.rcv_nxt && not (List.mem_assoc seq_abs t.reasm)
                   then
                     t.reasm <-
                       List.sort (fun (a, _) (b, _) -> Int.compare a b)
                         ((seq_abs, payload) :: t.reasm);
                   (* always ack data (with the updated window) *)
                   update_rcv_wnd t;
                   send_segment t ~flags:{ Wire.no_flags with ack = true } t.snd_nxt
                 end);
                (* --- FIN processing --- *)
                let fin_seq = seq_abs + len in
                if f.Wire.fin && fin_seq = t.rcv_nxt then begin
                  t.rcv_nxt <- t.rcv_nxt + 1;
                  send_segment t ~flags:{ Wire.no_flags with ack = true } t.snd_nxt;
                  t.events `Peer_closed;
                  match t.state with
                  | ESTABLISHED -> t.state <- CLOSE_WAIT
                  | FIN_WAIT_1 -> t.state <- CLOSING
                  | FIN_WAIT_2 -> enter_time_wait t
                  | _ -> ()
                end
                else if f.Wire.fin && fin_seq < t.rcv_nxt then
                  (* duplicate FIN: re-ack *)
                  send_segment t ~flags:{ Wire.no_flags with ack = true } t.snd_nxt
              end
        end
      end

let factory =
  {
    Host.fname = "monolithic";
    peek = Wire.peek_ports;
    make =
      (fun ?ins:_ engine ~name:_ cfg ~local_port ~remote_port ~transmit ~events ->
        (* The monolith is deliberately opaque: no per-sublayer counters
           or spans exist to register (that contrast is the point of E19).
           It also keeps its string-based wire handling — it is the
           copying baseline — so the slice boundary is bridged here. *)
        let transmit s = transmit (Bitkit.Slice.of_string s) in
        let t = create engine cfg ~local_port ~remote_port ~transmit ~events in
        {
          Host.ep_from_wire = (fun sl -> from_wire t (Bitkit.Slice.to_string sl));
          ep_connect = (fun () -> connect t);
          ep_listen = (fun () -> listen t);
          ep_write = write t;
          ep_read = read t;
          ep_close = (fun () -> close t);
          ep_abort = (fun () -> abort t);
          ep_finished = (fun () -> stream_finished t);
        });
  }
