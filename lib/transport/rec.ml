open Sublayer.Machine

let name = "rec"

type t = {
  key : string;
  mac_key : string;
  local_port : int;
  remote_port : int;
  seq : int;
  pool : Bitkit.Pool.t option;
  c_sent : Sublayer.Stats.counter;
  c_failures : Sublayer.Stats.counter;
  c_copied_seal : Sublayer.Stats.counter;
  sp : Sublayer.Span.ctx;
}

(* The MAC key is derived from the cipher key so callers manage one
   secret; block 0 of an all-zero nonce is reserved for this derivation
   (data nonces embed a non-zero port). *)
let derive_mac_key key =
  String.sub (Bitkit.Chacha20.block ~key ~counter:0 ~nonce:(String.make 12 '\000')) 0 16

let initial ?stats ?span ?pool ~key ~local_port ~remote_port () =
  if String.length key <> 32 then invalid_arg "Rec: key must be 32 bytes";
  let sc =
    match stats with Some sc -> sc | None -> Sublayer.Stats.unregistered "rec"
  in
  { key; mac_key = derive_mac_key key; local_port; remote_port; seq = 0; pool;
    c_sent = Sublayer.Stats.counter sc "records_sent";
    c_failures = Sublayer.Stats.counter sc "auth_failures";
    c_copied_seal = Sublayer.Stats.counter sc "copied_seal_bytes";
    sp = (match span with Some sp -> sp | None -> Sublayer.Span.disabled name) }

let records_sent t = Sublayer.Stats.value t.c_sent
let auth_failures t = Sublayer.Stats.value t.c_failures

type up_req = Bitkit.Wirebuf.t
type up_ind = Bitkit.Slice.t
type down_req = Bitkit.Wirebuf.t
type down_ind = Bitkit.Slice.t
type timer = Nothing.t

(* One record is laid out in [b] at [off] as
   [le16 port][le64 seq][ciphertext][tag]: the plaintext is emitted once
   into place, encrypted by in-place keystream XOR, and the SipHash tag
   over the first [10 + n] bytes (port, seq, ciphertext — contiguous, so
   the MAC reads the buffer in place) lands right after them. The record
   the peer sees is the buffer minus its 2-byte port prefix. The ChaCha20
   nonce is RFC 8439 §2.8's [fixed || iv] with the sender's port as the
   fixed part and its sequence number as the IV, so the two directions
   of a connection never share a nonce under one key. *)
let seal_into t pdu b off ~n =
  let seq = t.seq and port = t.local_port land 0xFFFF in
  Bytes.set_uint16_le b off port;
  Bytes.set_int64_le b (off + 2) (Int64.of_int seq);
  Bitkit.Wirebuf.emit_into pdu b (off + 10);
  Bitkit.Chacha20.xor_iv_into ~key:t.key ~fixed:port ~iv:seq b ~pos:(off + 10)
    ~len:n;
  (* The tag lands past the hashed region, so reading the buffer through
     an alias while writing there is sound. *)
  Bitkit.Siphash.tag_into ~key:t.mac_key (Bytes.unsafe_to_string b) ~pos:off
    ~len:(10 + n) b (off + 10 + n)

(* Seal one PDU into a loaned pool slot when there is a pool with room,
   else into a fresh heap buffer — the same bytes either way. A loan is
   consumed by DM's emit within this same event, so it is
   deferred-released immediately. *)
let seal_record t pdu =
  let n = Bitkit.Wirebuf.emit_cost pdu in
  let total = 2 + 8 + n + 8 in
  let on_heap () =
    let b = Bytes.create total in
    seal_into t pdu b 0 ~n;
    Bitkit.Slice.make (Bytes.unsafe_to_string b) ~off:2 ~len:(total - 2)
  in
  let record =
    match t.pool with
    | None -> on_heap ()
    | Some pool ->
        let slot = Bitkit.Pool.loan pool ~len:total in
        if slot = Bitkit.Pool.no_slot then on_heap ()
        else begin
          seal_into t pdu (Bitkit.Pool.buffer pool) (Bitkit.Pool.off pool slot) ~n;
          Bitkit.Pool.defer_release pool slot;
          Bitkit.Slice.sub (Bitkit.Pool.slice pool slot ~len:total) ~pos:2
            ~len:(total - 2)
        end
  in
  Sublayer.Stats.incr t.c_sent;
  Sublayer.Stats.add t.c_copied_seal n;
  ({ t with seq = t.seq + 1 }, record)

(* The record is copied once, behind the receiver's view of the
   sender's port, as [le16 port][seq][ciphertext][tag]: the MAC runs
   over that buffer in place and, only if the tag matches, the
   ciphertext is decrypted in place and returned as a view. A record
   too short to carry a tag fails authentication like a forged one. *)
let open_record t record =
  let n = Bitkit.Slice.length record in
  if n < 16 then begin
    Sublayer.Stats.incr t.c_failures;
    None
  end
  else begin
    let port = t.remote_port land 0xFFFF in
    let b = Bytes.create (2 + n) in
    Bytes.set_uint16_le b 0 port;
    Bitkit.Slice.blit record b 2;
    let s = Bytes.unsafe_to_string b in
    let tag = Bitkit.Siphash.hash_sub ~key:t.mac_key s ~pos:0 ~len:(n - 6) in
    if not (Int64.equal tag (String.get_int64_le s (n - 6))) then begin
      Sublayer.Stats.incr t.c_failures;
      None
    end
    else begin
      let seq = Int64.to_int (String.get_int64_le s 2) in
      Bitkit.Chacha20.xor_iv_into ~key:t.key ~fixed:port ~iv:seq b ~pos:10
        ~len:(n - 16);
      Some (Bitkit.Slice.make s ~off:10 ~len:(n - 16))
    end
  end

let seal t pdu =
  let t, record = seal_record t (Bitkit.Wirebuf.of_string pdu) in
  (t, Bitkit.Slice.to_string record)

let open_ t record =
  Option.map Bitkit.Slice.to_string (open_record t (Bitkit.Slice.of_string record))

(* Encryption transforms every byte, so this sublayer is a forced
   materialisation point: the accumulated wirebuf is emitted once into
   the record buffer and re-wrapped as the payload of a fresh wirebuf
   for DM. *)
let handle_up_req t pdu =
  let t, record = seal_record t pdu in
  if Sublayer.Span.active t.sp then
    Sublayer.Span.instant t.sp
      ~detail:(Printf.sprintf "seq=%d" (t.seq - 1)) "seal";
  (t, [ Down (Bitkit.Wirebuf.of_slice record) ])

let handle_down_ind t record =
  match open_record t record with
  | Some pdu ->
      Sublayer.Span.instant t.sp "open";
      (t, [ Up pdu ])
  | None ->
      Sublayer.Span.instant t.sp "auth_fail";
      (t, [])

let handle_timer _ (tm : timer) = Nothing.absurd tm
