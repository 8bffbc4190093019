(** An unordered-message sublayer — a drop-in {e replacement} for {!Osr}
    at the top of the stack.

    The paper (§6) frames SST and Minion as "a specific use case for
    sublayering: how do I sublayer TCP to avoid head-of-line blocking?".
    This module is that use case realised: it has exactly OSR's lower
    ports (so [Machine.Stack (Msg) (Stack (Rd) (...))] type-checks
    unchanged — tests T1–T3 at work), but offers a {e message} service
    instead of a byte stream: each message is fragmented, carried by RD's
    exactly-once segments, reassembled independently, and delivered as
    soon as {e its own} bytes arrive — a lost segment delays only the
    message it belongs to, never its neighbours.

    Rate control (the same pluggable {!Cc}) and flow control ride this
    sublayer's own header: window:16, msg_id:16, frag_off:16, msg_len:16.
    Message ids wrap at 2^16, bounding one connection to 65535 in-flight
    messages — ample for simulation workloads. *)

type header = { window : int; msg_id : int; frag_off : int; msg_len : int }

val header_bytes : int

val write_header : header -> Bitkit.Bitio.Writer.t -> unit
(** Append just the header bits — the {!Bitkit.Wirebuf.push} form used on
    the zero-copy transmit path. *)

val encode_header : header -> payload:string -> string
(** Legacy string codec (header + copied payload), kept as the reference
    the slice decoder is property-tested against. *)

val decode_header_slice : Bitkit.Slice.t -> (header * Bitkit.Slice.t) option
(** Peel the header off a slice view; the returned payload is a narrowed
    view of the input (no copy). [None] on truncation. *)

type up_req = [ `Connect | `Listen | `Send of string | `Close ]

type up_ind =
  [ `Established
  | `Msg of string  (** a complete message; arrival order, not send order *)
  | `Peer_closed
  | `Closed
  | `Reset
  | `Aborted ]

type t

val initial :
  ?stats:Sublayer.Stats.scope ->
  ?cc_stats:Sublayer.Stats.scope ->
  ?span:Sublayer.Span.ctx ->
  Config.t ->
  now:(unit -> float) ->
  t
(** Counters (when [stats] is given): [messages_sent],
    [messages_delivered], [dropped] (undecodable segments and
    indications before establishment). [cc_stats] instruments the congestion-control
    instance as in {!Osr.initial}. When [span] is given, each message
    opens a fresh-trace [msg_send] span (closed when fully fragmented)
    and delivery records an instant [msg_delivered]. *)

val messages_delivered : t -> int
val messages_sent : t -> int
val stream_finished : t -> bool

include
  Sublayer.Machine.S
    with type t := t
     and type up_req := up_req
     and type up_ind := up_ind
     and type down_req = Iface.rd_req
     and type down_ind = Iface.rd_ind
     and type timer = Sublayer.Machine.Nothing.t
