(** The connection-management sublayer (paper §3).

    CM's service to RD is to "establish a pair of Initial Sequence
    Numbers" that are unique in time and hard to predict, using its own
    bootstrap reliability (timeout-retransmitted SYN/FIN control PDUs, no
    windows). After the handshake it stamps every data PDU with the ISN
    pair and drops segments whose ISNs do not match the connection —
    CM's "trust" guarantee that what RD sees is never a delayed duplicate
    from an earlier incarnation.

    The ISN mechanism itself ({!Isn.t}) is a constructor argument, so
    RFC 793 clocks, RFC 1948 hashes or plain counters drop in without any
    change here (experiment E10). *)

type phase =
  | Closed
  | Listen
  | Syn_sent of int       (** retries so far *)
  | Syn_rcvd of int
  | Established
  | Fin_wait_1 of int
  | Fin_wait_2
  | Closing of int
  | Time_wait
  | Close_wait
  | Last_ack of int

type t

val initial :
  ?stats:Sublayer.Stats.scope ->
  ?span:Sublayer.Span.ctx ->
  Config.t ->
  isn:Isn.t ->
  local_port:int ->
  remote_port:int ->
  t
(** Counters (when [stats] is given): [established], [resets_sent],
    [resets_received], [handshake_retx], [segments_dropped] (undecodable,
    stale or out-of-phase segments, ignored resets, and data offered
    before establishment). When [span] is given, [handshake] and
    [teardown] spans cover the control exchanges, with instant
    [rst_in]/[rst_out]/[retx] markers. *)

val phase : t -> phase
val phase_name : t -> string
val isns : t -> (int * int) option
(** [(isn_local, isn_remote)] once established. *)

type timer = Handshake | Fin_retx | Time_wait_expiry

include
  Sublayer.Machine.S
    with type t := t
     and type up_req = Iface.cm_req
     and type up_ind = Iface.cm_ind
     and type down_req = Bitkit.Wirebuf.t
     and type down_ind = Bitkit.Slice.t
     and type timer := timer
