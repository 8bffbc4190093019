(* Unchecked little-endian 64-bit loads: [hash_sub] validates its range
   before the compression loop runs. *)
external string_get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get_le64 s i =
  if Sys.big_endian then bswap64 (string_get64u s i) else string_get64u s i

let[@inline] rotl x n =
  Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

(* The state lives in four local [int64] refs, which never escape, so
   ocamlopt keeps them unboxed: the whole hash allocates nothing but its
   result. One loop runs every compression: the [full] message words and
   the padded last word take two SipRounds each, and a final pass with
   [v2 ^= 0xff] takes the four finalisation rounds. *)
let hash_sub ~key msg ~pos ~len =
  if String.length key <> 16 then invalid_arg "Siphash: key must be 16 bytes";
  if pos < 0 || len < 0 || pos > String.length msg - len then
    invalid_arg "Siphash.hash_sub";
  let k0 = get_le64 key 0 and k1 = get_le64 key 8 in
  let v0 = ref (Int64.logxor 0x736f6d6570736575L k0) in
  let v1 = ref (Int64.logxor 0x646f72616e646f6dL k1) in
  let v2 = ref (Int64.logxor 0x6c7967656e657261L k0) in
  let v3 = ref (Int64.logxor 0x7465646279746573L k1) in
  let full = len / 8 in
  (* final word: the remaining bytes plus the length in the top byte *)
  let last = ref (Int64.shift_left (Int64.of_int (len land 0xFF)) 56) in
  for i = 0 to (len land 7) - 1 do
    last :=
      Int64.logor !last
        (Int64.shift_left
           (Int64.of_int (Char.code (String.unsafe_get msg (pos + (8 * full) + i))))
           (8 * i))
  done;
  for blk = 0 to full + 1 do
    let m =
      if blk < full then get_le64 msg (pos + (8 * blk))
      else if blk = full then !last
      else 0L
    in
    if blk <= full then v3 := Int64.logxor !v3 m
    else v2 := Int64.logxor !v2 0xFFL;
    for _ = 1 to (if blk <= full then 2 else 4) do
      v0 := Int64.add !v0 !v1;
      v1 := rotl !v1 13;
      v1 := Int64.logxor !v1 !v0;
      v0 := rotl !v0 32;
      v2 := Int64.add !v2 !v3;
      v3 := rotl !v3 16;
      v3 := Int64.logxor !v3 !v2;
      v0 := Int64.add !v0 !v3;
      v3 := rotl !v3 21;
      v3 := Int64.logxor !v3 !v0;
      v2 := Int64.add !v2 !v1;
      v1 := rotl !v1 17;
      v1 := Int64.logxor !v1 !v2;
      v2 := rotl !v2 32
    done;
    v0 := Int64.logxor !v0 m
  done;
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)

let hash ~key msg = hash_sub ~key msg ~pos:0 ~len:(String.length msg)

let tag_into ~key msg ~pos ~len dst dpos =
  Bytes.set_int64_le dst dpos (hash_sub ~key msg ~pos ~len)

let tag ~key msg =
  let b = Bytes.create 8 in
  tag_into ~key msg ~pos:0 ~len:(String.length msg) b 0;
  Bytes.unsafe_to_string b
