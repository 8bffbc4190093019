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

let le64 v = String.init 8 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF))
let le16 v = String.init 2 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF))

let nonce ~port ~seq = le16 port ^ "\000\000" ^ le64 seq

let read_le64 s off =
  let b i = Char.code s.[off + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) lor (b 4 lsl 32)
  lor (b 5 lsl 40) lor (b 6 lsl 48) lor (b 7 lsl 56)

let tag_input ~port ~seq ciphertext = le16 port ^ le64 seq ^ ciphertext

let seal t pdu =
  let seq = t.seq in
  let ciphertext =
    Bitkit.Chacha20.encrypt ~key:t.key ~nonce:(nonce ~port:t.local_port ~seq) pdu
  in
  let tag =
    Bitkit.Siphash.tag ~key:t.mac_key (tag_input ~port:t.local_port ~seq ciphertext)
  in
  Sublayer.Stats.incr t.c_sent;
  ({ t with seq = seq + 1 }, le64 seq ^ ciphertext ^ tag)

(* A record too short to carry a tag fails authentication like a forged
   one. *)
let open_ t record =
  let n = String.length record in
  if n < 16 then begin
    Sublayer.Stats.incr t.c_failures;
    None
  end
  else begin
    let seq = read_le64 record 0 in
    let ciphertext = String.sub record 8 (n - 16) in
    let tag = String.sub record (n - 8) 8 in
    let expected =
      Bitkit.Siphash.tag ~key:t.mac_key (tag_input ~port:t.remote_port ~seq ciphertext)
    in
    if not (String.equal tag expected) then begin
      Sublayer.Stats.incr t.c_failures;
      None
    end
    else
      Some
        (Bitkit.Chacha20.encrypt ~key:t.key ~nonce:(nonce ~port:t.remote_port ~seq)
           ciphertext)
  end

(* Seal into a loaned slot, laid out as
   [le16 port][le64 seq][ciphertext][tag]: the first 10 + n bytes are
   exactly [tag_input], contiguous, so the MAC runs over the arena in
   place; encryption XORs the emitted plaintext in place; the record the
   peer sees is the slot minus its 2-byte port prefix. No intermediate
   flat string exists (the cipher's per-block keystream strings still
   allocate). The loan is consumed by DM's emit within this same event,
   so it is deferred-released immediately. *)
let seal_pooled t pool pdu =
  let n = Bitkit.Wirebuf.emit_cost pdu in
  let total = 2 + 8 + n + 8 in
  let slot = Bitkit.Pool.loan pool ~len:total in
  if slot = Bitkit.Pool.no_slot then None
  else begin
    let b = Bitkit.Pool.buffer pool in
    let off = Bitkit.Pool.off pool slot in
    let seq = t.seq in
    let port = t.local_port in
    Bytes.set b off (Char.chr (port land 0xFF));
    Bytes.set b (off + 1) (Char.chr ((port lsr 8) land 0xFF));
    for i = 0 to 7 do
      Bytes.set b (off + 2 + i) (Char.chr ((seq lsr (8 * i)) land 0xFF))
    done;
    Bitkit.Wirebuf.emit_into pdu b (off + 10);
    Bitkit.Chacha20.xor_into ~key:t.key ~nonce:(nonce ~port ~seq) b
      ~pos:(off + 10) ~len:n;
    (* The tag lands past the hashed region, so reading the arena through
       an alias while writing there is sound. *)
    Bitkit.Siphash.tag_into ~key:t.mac_key (Bytes.unsafe_to_string b) ~pos:off
      ~len:(10 + n) b
      (off + 10 + n);
    Sublayer.Stats.incr t.c_sent;
    Sublayer.Stats.add t.c_copied_seal n;
    Bitkit.Pool.defer_release pool slot;
    let record =
      Bitkit.Slice.sub (Bitkit.Pool.slice pool slot ~len:total) ~pos:2
        ~len:(total - 2)
    in
    Some ({ t with seq = seq + 1 }, record)
  end

(* Encryption transforms every byte, so this sublayer is a forced
   materialisation point either way: the accumulated wirebuf is emitted,
   sealed, and re-wrapped as the payload of a fresh wirebuf for DM. *)
let handle_up_req t pdu =
  let pooled =
    match t.pool with None -> None | Some pool -> seal_pooled t pool pdu
  in
  match pooled with
  | Some (t, record) ->
      Sublayer.Span.instant t.sp
        ~detail:(Printf.sprintf "seq=%d" (t.seq - 1)) "seal";
      (t, [ Down (Bitkit.Wirebuf.of_slice record) ])
  | None ->
      (* Sealing forces the wirebuf out; charge the known emit size
         directly — bracketing the process-global counter would
         over-count copies other shards make concurrently. *)
      Sublayer.Stats.add t.c_copied_seal (Bitkit.Wirebuf.copy_cost pdu);
      let plain = Bitkit.Wirebuf.to_string pdu in
      let t, record = seal t plain in
      Sublayer.Span.instant t.sp
        ~detail:(Printf.sprintf "seq=%d" (t.seq - 1)) "seal";
      (t, [ Down (Bitkit.Wirebuf.of_string record) ])

let handle_down_ind t record =
  match open_ t (Bitkit.Slice.to_string record) with
  | Some pdu ->
      Sublayer.Span.instant t.sp "open";
      (t, [ Up (Bitkit.Slice.of_string pdu) ])
  | None ->
      Sublayer.Span.instant t.sp "auth_fail";
      (t, [])

let handle_timer _ (tm : timer) = Nothing.absurd tm
