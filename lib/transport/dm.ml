open Sublayer.Machine

let name = "dm"

type conn = { local_port : int; remote_port : int }

type t = {
  conn : conn;
  pool : Bitkit.Pool.t option;
  segments_out : Sublayer.Stats.counter;
  segments_in : Sublayer.Stats.counter;
  rejected : Sublayer.Stats.counter;
  sp : Sublayer.Span.ctx;
}

type up_req = Bitkit.Wirebuf.t
type up_ind = Bitkit.Slice.t
type down_req = Bitkit.Slice.t
type down_ind = Bitkit.Slice.t
type timer = Nothing.t

let make ?stats ?span ?pool ~local_port ~remote_port () =
  let sc =
    match stats with Some sc -> sc | None -> Sublayer.Stats.unregistered "dm"
  in
  {
    conn = { local_port; remote_port };
    pool;
    segments_out = Sublayer.Stats.counter sc "segments_out";
    segments_in = Sublayer.Stats.counter sc "segments_in";
    rejected = Sublayer.Stats.counter sc "rejected";
    sp = (match span with Some sp -> sp | None -> Sublayer.Span.disabled name);
  }

let conn t = t.conn

let handle_up_req t pdu =
  let header =
    { Segment.src_port = t.conn.local_port; dst_port = t.conn.remote_port }
  in
  Sublayer.Stats.incr t.segments_out;
  (* Demultiplexing is synchronous, so these mark T2 crossings rather
     than measure time; they carry no trace (DM cannot see one). *)
  Sublayer.Span.instant t.sp "segment_out";
  let wb = Bitkit.Wirebuf.push pdu ~owner:"dm" (Segment.write_dm header) in
  Segment.audit_wirebuf wb;
  match t.pool with
  | None -> (t, [ Down (Bitkit.Wirebuf.to_slice wb) ])
  | Some pool ->
      (* Emit into a loaned slot. DM's own reference dies at end of
         event; a pool-aware transmit closure that wants the bytes to
         live until channel delivery recognises the slot
         ([Pool.slot_of_slice]) and retains it before then. *)
      let slot, wire = Bitkit.Wirebuf.emit_pooled wb pool in
      if slot <> Bitkit.Pool.no_slot then Bitkit.Pool.defer_release pool slot;
      (t, [ Down wire ])

let handle_down_ind t wire =
  match Segment.decode_dm_slice wire with
  | None -> drop t.rejected t
  | Some (dm, payload) ->
      if dm.Segment.dst_port = t.conn.local_port
         && dm.Segment.src_port = t.conn.remote_port
      then begin
        Sublayer.Stats.incr t.segments_in;
        Sublayer.Span.instant t.sp "segment_in";
        (t, [ Up payload ])
      end
      else drop t.rejected t

let handle_timer _ t = Nothing.absurd t
