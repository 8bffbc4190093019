let mask = 0xFFFFFFFF

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

let quarter_round (a, b, c, d) =
  let a = (a + b) land mask in
  let d = rotl (d lxor a) 16 in
  let c = (c + d) land mask in
  let b = rotl (b lxor c) 12 in
  let a = (a + b) land mask in
  let d = rotl (d lxor a) 8 in
  let c = (c + d) land mask in
  let b = rotl (b lxor c) 7 in
  (a, b, c, d)

(* Unchecked little-endian 32-bit access: every caller has validated its
   range before the core runs. *)
external string_get32u : string -> int -> int32 = "%caml_string_get32u"
external bytes_set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get_le32 s i =
  Int32.to_int (if Sys.big_endian then bswap32 (string_get32u s i) else string_get32u s i)
  land mask

let[@inline] set_le32 b i v =
  let v = Int32.of_int v in
  bytes_set32u b i (if Sys.big_endian then bswap32 v else v)

(* The quarter round on four words of the working state, in place. *)
let[@inline] qr x a b c d =
  let xa = Array.unsafe_get x a and xb = Array.unsafe_get x b in
  let xc = Array.unsafe_get x c and xd = Array.unsafe_get x d in
  let xa = (xa + xb) land mask in
  let xd = rotl (xd lxor xa) 16 in
  let xc = (xc + xd) land mask in
  let xb = rotl (xb lxor xc) 12 in
  let xa = (xa + xb) land mask in
  let xd = rotl (xd lxor xa) 8 in
  let xc = (xc + xd) land mask in
  let xb = rotl (xb lxor xc) 7 in
  Array.unsafe_set x a xa;
  Array.unsafe_set x b xb;
  Array.unsafe_set x c xc;
  Array.unsafe_set x d xd

(* The one keystream core: [dst.[dpos..dpos+len-1] <- src.[spos..] xor
   keystream], starting at block [counter], nonce words [n0 n1 n2]. The
   16-word input state is built once per call and the block counter is
   its only per-block change; [src] and [dst] may be the same buffer
   (in-place). Callers check key length and both ranges. *)
let keystream_xor key counter n0 n1 n2 src spos dst dpos len =
  let init = Array.make 16 0 and x = Array.make 16 0 in
  init.(0) <- 0x61707865;
  init.(1) <- 0x3320646e;
  init.(2) <- 0x79622d32;
  init.(3) <- 0x6b206574;
  for i = 0 to 7 do
    init.(4 + i) <- get_le32 key (4 * i)
  done;
  init.(13) <- n0;
  init.(14) <- n1;
  init.(15) <- n2;
  let blk = ref counter and i = ref 0 in
  while !i < len do
    init.(12) <- !blk land mask;
    for w = 0 to 15 do
      Array.unsafe_set x w (Array.unsafe_get init w)
    done;
    for _ = 1 to 10 do
      (* column rounds *)
      qr x 0 4 8 12;
      qr x 1 5 9 13;
      qr x 2 6 10 14;
      qr x 3 7 11 15;
      (* diagonal rounds *)
      qr x 0 5 10 15;
      qr x 1 6 11 12;
      qr x 2 7 8 13;
      qr x 3 4 9 14
    done;
    let chunk = min 64 (len - !i) in
    let words = chunk / 4 in
    for w = 0 to words - 1 do
      let ks = (Array.unsafe_get x w + Array.unsafe_get init w) land mask in
      let o = !i + (4 * w) in
      set_le32 dst (dpos + o) (get_le32 src (spos + o) lxor ks)
    done;
    if chunk land 3 <> 0 then begin
      let ks =
        (Array.unsafe_get x words + Array.unsafe_get init words) land mask
      in
      for j = 4 * words to chunk - 1 do
        let o = !i + j in
        Bytes.unsafe_set dst (dpos + o)
          (Char.unsafe_chr
             (Char.code (String.unsafe_get src (spos + o))
             lxor ((ks lsr (8 * (j land 3))) land 0xFF)))
      done
    end;
    i := !i + chunk;
    incr blk
  done

let check_key key =
  if String.length key <> 32 then invalid_arg "Chacha20: key must be 32 bytes"

let check_nonce nonce =
  if String.length nonce <> 12 then invalid_arg "Chacha20: nonce must be 12 bytes"

let check_range name b pos len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg name

let xor_iv_into ~key ~fixed ~iv b ~pos ~len =
  check_key key;
  check_range "Chacha20.xor_iv_into" b pos len;
  keystream_xor key 1 (fixed land mask) (iv land mask)
    ((iv lsr 32) land mask) (Bytes.unsafe_to_string b) pos b pos len

let xor_into ~key ?(counter = 1) ~nonce b ~pos ~len =
  check_key key;
  check_nonce nonce;
  check_range "Chacha20.xor_into" b pos len;
  keystream_xor key counter (get_le32 nonce 0) (get_le32 nonce 4)
    (get_le32 nonce 8) (Bytes.unsafe_to_string b) pos b pos len

let encrypt ~key ?(counter = 1) ~nonce plaintext =
  check_key key;
  check_nonce nonce;
  let n = String.length plaintext in
  let out = Bytes.create n in
  keystream_xor key counter (get_le32 nonce 0) (get_le32 nonce 4)
    (get_le32 nonce 8) plaintext 0 out 0 n;
  Bytes.unsafe_to_string out

let block ~key ~counter ~nonce =
  encrypt ~key ~counter ~nonce (String.make 64 '\000')
