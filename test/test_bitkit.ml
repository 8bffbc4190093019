(* Unit and property tests for the bit-level substrate. *)

open Bitkit

let check = Alcotest.check
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let bits_gen =
  QCheck2.Gen.(map (fun l -> Bitseq.of_bool_list l) (list_size (0 -- 200) bool))

let string_gen = QCheck2.Gen.(string_size ~gen:char (0 -- 200))

(* --- Bitseq --- *)

let test_bitseq_literals () =
  let b = Bitseq.of_bits "0110101" in
  check Alcotest.int "length" 7 (Bitseq.length b);
  check Alcotest.string "roundtrip" "0110101" (Bitseq.to_bits b);
  check Alcotest.bool "get 0" false (Bitseq.get b 0);
  check Alcotest.bool "get 1" true (Bitseq.get b 1);
  check Alcotest.bool "get 6" true (Bitseq.get b 6);
  Alcotest.check_raises "oob" (Invalid_argument "Bitseq.get") (fun () ->
      ignore (Bitseq.get b 7))

let test_bitseq_bytes () =
  let b = Bitseq.of_string "\x80\x01" in
  check Alcotest.int "length" 16 (Bitseq.length b);
  check Alcotest.string "bits" "1000000000000001" (Bitseq.to_bits b);
  check Alcotest.string "bytes roundtrip" "\x80\x01" (Bitseq.to_string b)

let test_bitseq_ops () =
  let a = Bitseq.of_bits "101" and b = Bitseq.of_bits "01" in
  check Alcotest.string "append" "10101" (Bitseq.to_bits (Bitseq.append a b));
  check Alcotest.string "cons" "1101" (Bitseq.to_bits (Bitseq.cons true (Bitseq.of_bits "101")));
  check Alcotest.string "snoc" "1010" (Bitseq.to_bits (Bitseq.snoc a false));
  check Alcotest.string "sub" "01" (Bitseq.to_bits (Bitseq.sub a 1 2));
  check Alcotest.string "rev" "101" (Bitseq.to_bits (Bitseq.rev a));
  check Alcotest.int "popcount" 2 (Bitseq.popcount a);
  check Alcotest.string "repeat" "101101101" (Bitseq.to_bits (Bitseq.repeat a 3));
  check Alcotest.bool "prefix yes" true (Bitseq.is_prefix ~prefix:(Bitseq.of_bits "10") a);
  check Alcotest.bool "prefix no" false (Bitseq.is_prefix ~prefix:(Bitseq.of_bits "11") a)

let test_bitseq_find_sub () =
  let hay = Bitseq.of_bits "0011010011" in
  check Alcotest.(option int) "found" (Some 2)
    (Bitseq.find_sub ~pattern:(Bitseq.of_bits "1101") hay);
  check Alcotest.(option int) "missing" None
    (Bitseq.find_sub ~pattern:(Bitseq.of_bits "11111") hay);
  check Alcotest.(option int) "empty pattern" (Some 0)
    (Bitseq.find_sub ~pattern:Bitseq.empty hay);
  check Alcotest.(option int) "first of several" (Some 2)
    (Bitseq.find_sub ~pattern:(Bitseq.of_bits "11") hay);
  check Alcotest.(option int) "at end" (Some 5)
    (Bitseq.find_sub ~pattern:(Bitseq.of_bits "10011") hay)

let test_bitseq_flip () =
  let b = Bitseq.of_bits "0000" in
  check Alcotest.string "flip 2" "0010" (Bitseq.to_bits (Bitseq.flip b 2));
  check Alcotest.bool "flip twice is id" true
    (Bitseq.equal b (Bitseq.flip (Bitseq.flip b 1) 1))

let prop_bitseq_roundtrip =
  qtest "bool list roundtrip" QCheck2.Gen.(list_size (0 -- 100) bool) (fun l ->
      Bitseq.to_bool_list (Bitseq.of_bool_list l) = l)

let prop_bitseq_equal_structural =
  qtest "equality ignores construction path" bits_gen (fun b ->
      let rebuilt = Bitseq.concat (List.map (fun x -> Bitseq.of_bool_list [ x ]) (Bitseq.to_bool_list b)) in
      Bitseq.equal b rebuilt && Bitseq.compare b rebuilt = 0)

let prop_bitseq_append_length =
  qtest "append length" QCheck2.Gen.(pair bits_gen bits_gen) (fun (a, b) ->
      Bitseq.length (Bitseq.append a b) = Bitseq.length a + Bitseq.length b)

let prop_bitseq_of_bytes_bits =
  qtest "of_bytes_bits prefix view" QCheck2.Gen.(pair string_gen (0 -- 64)) (fun (s, n) ->
      let n = min n (8 * String.length s) in
      let whole = Bitseq.of_string s in
      Bitseq.equal (Bitseq.of_bytes_bits (Bytes.of_string s) n) (Bitseq.sub whole 0 n))

(* --- Bitio --- *)

let test_bitio_fields () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.bits w 0b101 3;
  Bitio.Writer.bits w 0b01 2;
  Bitio.Writer.bits w 0b110 3;
  Bitio.Writer.uint16 w 0xBEEF;
  let s = Bitio.Writer.contents w in
  check Alcotest.int "packed length" 3 (String.length s);
  let r = Bitio.Reader.of_string s in
  check Alcotest.int "f1" 0b101 (Bitio.Reader.bits r 3);
  check Alcotest.int "f2" 0b01 (Bitio.Reader.bits r 2);
  check Alcotest.int "f3" 0b110 (Bitio.Reader.bits r 3);
  check Alcotest.int "u16" 0xBEEF (Bitio.Reader.uint16 r)

let test_bitio_truncated () =
  let r = Bitio.Reader.of_string "\x01" in
  ignore (Bitio.Reader.uint8 r);
  Alcotest.check_raises "truncated" Bitio.Reader.Truncated (fun () ->
      ignore (Bitio.Reader.bit r))

let test_bitio_alignment () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.bit w true;
  Alcotest.check_raises "unaligned bytes"
    (Invalid_argument "Bitio.Writer.bytes: not byte-aligned") (fun () ->
      Bitio.Writer.bytes w "x");
  Bitio.Writer.pad_to_byte w;
  Bitio.Writer.bytes w "x";
  check Alcotest.int "bits" 16 (Bitio.Writer.bit_length w)

let prop_bitio_u32_roundtrip =
  qtest "uint32 roundtrip" QCheck2.Gen.(0 -- 0xFFFFFF) (fun v ->
      let w = Bitio.Writer.create () in
      Bitio.Writer.uint32 w v;
      let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
      Bitio.Reader.uint32 r = v)

(* --- Crc --- *)

let test_crc_catalogue () =
  List.iter
    (fun p ->
      let t = Crc.make p in
      check Alcotest.bool (p.Crc.name ^ " self test") true (Crc.self_test t))
    Crc.all

let test_crc_detects_flip () =
  let t = Crc.make Crc.crc32 in
  let msg = "the quick brown fox jumps over the lazy dog" in
  let base = Crc.digest t msg in
  for byte = 0 to String.length msg - 1 do
    let corrupted = Bytes.of_string msg in
    Bytes.set corrupted byte (Char.chr (Char.code msg.[byte] lxor 0x10));
    if Crc.digest t (Bytes.to_string corrupted) = base then
      Alcotest.failf "flip at byte %d undetected" byte
  done

let test_crc_digest_sub () =
  let t = Crc.make Crc.crc16_ccitt in
  check Alcotest.bool "sub matches" true
    (Crc.digest_sub t "xx123456789yy" 2 9 = Crc.digest t "123456789")

let prop_crc_incremental_disjoint =
  qtest "different strings different crc (mostly)" QCheck2.Gen.(pair string_gen string_gen)
    (fun (a, b) ->
      let t = Crc.make Crc.crc64_xz in
      a = b || Crc.digest t a <> Crc.digest t b)

(* --- Checksum --- *)

let test_internet_checksum () =
  (* classic example from RFC 1071 derivations *)
  let s = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check Alcotest.int "value" 0x220d (Checksum.internet s);
  (* embedding the checksum verifies *)
  let c = Checksum.internet s in
  let framed = s ^ String.init 2 (fun i -> Char.chr ((c lsr (8 * (1 - i))) land 0xFF)) in
  check Alcotest.bool "self-verifies" true (Checksum.internet_valid framed)

let test_parity () =
  check Alcotest.bool "odd ones" true (Checksum.parity "\x01");
  check Alcotest.bool "even ones" false (Checksum.parity "\x03");
  check Alcotest.bool "empty" false (Checksum.parity "")

let test_fletcher_adler () =
  check Alcotest.int "fletcher16 abcde" 0xC8F0 (Checksum.fletcher16 "abcde");
  check Alcotest.bool "adler32 Wikipedia" true
    (Checksum.adler32 "Wikipedia" = 0x11E60398l)

let prop_internet_valid =
  qtest "internet checksum self-verification" string_gen (fun s ->
      let c = Checksum.internet s in
      let tail = String.init 2 (fun i -> Char.chr ((c lsr (8 * (1 - i))) land 0xFF)) in
      (* Zero-pads odd bodies, so restrict to even length. *)
      String.length s land 1 = 1 || Checksum.internet_valid (s ^ tail))

(* --- Chacha20 / Siphash (RFC vectors) --- *)

let test_chacha_quarter_round () =
  (* RFC 8439 §2.1.1 *)
  let a, b, c, d =
    Chacha20.quarter_round (0x11111111, 0x01020304, 0x9b8d6f43, 0x01234567)
  in
  check Alcotest.int "a" 0xea2a92f4 a;
  check Alcotest.int "b" 0xcb1cf8ce b;
  check Alcotest.int "c" 0x4581472e c;
  check Alcotest.int "d" 0x5881c4bb d

let test_chacha_block_vector () =
  (* RFC 8439 §2.3.2 *)
  let key = String.init 32 Char.chr in
  let nonce = Hexdump.to_string "000000090000004a00000000" in
  let blk = Chacha20.block ~key ~counter:1 ~nonce in
  check Alcotest.string "first 16 keystream bytes" "10f1e7e4d13b5915500fdd1fa32071c4"
    (Hexdump.of_string (String.sub blk 0 16))

let test_chacha_bad_sizes () =
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20: key must be 32 bytes")
    (fun () -> ignore (Chacha20.block ~key:"short" ~counter:0 ~nonce:(String.make 12 'n')));
  Alcotest.check_raises "short nonce" (Invalid_argument "Chacha20: nonce must be 12 bytes")
    (fun () -> ignore (Chacha20.block ~key:(String.make 32 'k') ~counter:0 ~nonce:"n"))

let prop_chacha_involution =
  qtest "encrypt . encrypt = id" string_gen (fun s ->
      let key = String.make 32 'k' and nonce = String.make 12 'n' in
      Chacha20.encrypt ~key ~nonce (Chacha20.encrypt ~key ~nonce s) = s)

let prop_chacha_key_sensitivity =
  qtest "different keys, different ciphertext" QCheck2.Gen.(string_size ~gen:char (1 -- 100))
    (fun s ->
      let nonce = String.make 12 'n' in
      Chacha20.encrypt ~key:(String.make 32 'a') ~nonce s
      <> Chacha20.encrypt ~key:(String.make 32 'b') ~nonce s)

let test_siphash_vectors () =
  (* reference vectors from the SipHash paper's appendix *)
  let key = String.init 16 Char.chr in
  check Alcotest.bool "empty" true (Siphash.hash ~key "" = 0x726fdb47dd0e0e31L);
  check Alcotest.bool "one byte" true (Siphash.hash ~key "\x00" = 0x74f839c593dc67fdL);
  check Alcotest.int "tag is 8 bytes" 8 (String.length (Siphash.tag ~key ""))

let prop_siphash_avalanche =
  qtest "single-bit changes flip the hash" QCheck2.Gen.(string_size ~gen:char (1 -- 64))
    (fun s ->
      let key = String.init 16 Char.chr in
      let flipped = Bytes.of_string s in
      Bytes.set flipped 0 (Char.chr (Char.code s.[0] lxor 1));
      Siphash.hash ~key s <> Siphash.hash ~key (Bytes.to_string flipped))

(* --- Chacha20 / Siphash against the reference kernels ---

   The two modules below are the straightforward kernels the optimised
   ones replaced, kept verbatim as a differential oracle: tuple quarter
   rounds, a fresh state and keystream string per 64-byte block, and a
   SipHash state in a record of mutable [int64]s. *)

module Oracle_chacha20 = struct
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

  let word32_le s off =
    Char.code s.[off]
    lor (Char.code s.[off + 1] lsl 8)
    lor (Char.code s.[off + 2] lsl 16)
    lor (Char.code s.[off + 3] lsl 24)

  let qr st a b c d =
    let xa, xb, xc, xd = quarter_round (st.(a), st.(b), st.(c), st.(d)) in
    st.(a) <- xa;
    st.(b) <- xb;
    st.(c) <- xc;
    st.(d) <- xd

  let block ~key ~counter ~nonce =
    if String.length key <> 32 then invalid_arg "Chacha20: key must be 32 bytes";
    if String.length nonce <> 12 then invalid_arg "Chacha20: nonce must be 12 bytes";
    let init = Array.make 16 0 in
    init.(0) <- 0x61707865;
    init.(1) <- 0x3320646e;
    init.(2) <- 0x79622d32;
    init.(3) <- 0x6b206574;
    for i = 0 to 7 do
      init.(4 + i) <- word32_le key (4 * i)
    done;
    init.(12) <- counter land mask;
    for i = 0 to 2 do
      init.(13 + i) <- word32_le nonce (4 * i)
    done;
    let st = Array.copy init in
    for _ = 1 to 10 do
      (* column rounds *)
      qr st 0 4 8 12;
      qr st 1 5 9 13;
      qr st 2 6 10 14;
      qr st 3 7 11 15;
      (* diagonal rounds *)
      qr st 0 5 10 15;
      qr st 1 6 11 12;
      qr st 2 7 8 13;
      qr st 3 4 9 14
    done;
    let out = Bytes.create 64 in
    for i = 0 to 15 do
      let w = (st.(i) + init.(i)) land mask in
      Bytes.set out (4 * i) (Char.chr (w land 0xFF));
      Bytes.set out ((4 * i) + 1) (Char.chr ((w lsr 8) land 0xFF));
      Bytes.set out ((4 * i) + 2) (Char.chr ((w lsr 16) land 0xFF));
      Bytes.set out ((4 * i) + 3) (Char.chr ((w lsr 24) land 0xFF))
    done;
    Bytes.to_string out

  (* In-place keystream XOR over a region of [b]: the pooled seal path,
     where the plaintext was already emitted into an arena slot and the
     ciphertext replaces it without a fresh buffer. The per-block keystream
     strings still allocate; eliminating those would mean threading scratch
     state through the cipher core, which E27 reports honestly instead. *)
  let xor_into ~key ?(counter = 1) ~nonce b ~pos ~len =
    let i = ref 0 in
    let blk = ref counter in
    while !i < len do
      let ks = block ~key ~counter:!blk ~nonce in
      let chunk = min 64 (len - !i) in
      for j = 0 to chunk - 1 do
        Bytes.set b (pos + !i + j)
          (Char.chr (Char.code (Bytes.get b (pos + !i + j)) lxor Char.code ks.[j]))
      done;
      i := !i + chunk;
      incr blk
    done

  let encrypt ~key ?(counter = 1) ~nonce plaintext =
    let n = String.length plaintext in
    let out = Bytes.create n in
    let i = ref 0 in
    let blk = ref counter in
    while !i < n do
      let ks = block ~key ~counter:!blk ~nonce in
      let chunk = min 64 (n - !i) in
      for j = 0 to chunk - 1 do
        Bytes.set out (!i + j)
          (Char.chr (Char.code plaintext.[!i + j] lxor Char.code ks.[j]))
      done;
      i := !i + chunk;
      incr blk
    done;
    Bytes.to_string out
end

module Oracle_siphash = struct
  let rotl x n = Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

  let word64_le s off =
    let b i = Int64.of_int (Char.code s.[off + i]) in
    let ( ||| ) = Int64.logor in
    b 0
    ||| Int64.shift_left (b 1) 8
    ||| Int64.shift_left (b 2) 16
    ||| Int64.shift_left (b 3) 24
    ||| Int64.shift_left (b 4) 32
    ||| Int64.shift_left (b 5) 40
    ||| Int64.shift_left (b 6) 48
    ||| Int64.shift_left (b 7) 56

  type state = { mutable v0 : int64; mutable v1 : int64; mutable v2 : int64; mutable v3 : int64 }

  let sipround s =
    s.v0 <- Int64.add s.v0 s.v1;
    s.v1 <- rotl s.v1 13;
    s.v1 <- Int64.logxor s.v1 s.v0;
    s.v0 <- rotl s.v0 32;
    s.v2 <- Int64.add s.v2 s.v3;
    s.v3 <- rotl s.v3 16;
    s.v3 <- Int64.logxor s.v3 s.v2;
    s.v0 <- Int64.add s.v0 s.v3;
    s.v3 <- rotl s.v3 21;
    s.v3 <- Int64.logxor s.v3 s.v0;
    s.v2 <- Int64.add s.v2 s.v1;
    s.v1 <- rotl s.v1 17;
    s.v1 <- Int64.logxor s.v1 s.v2;
    s.v2 <- rotl s.v2 32

  let hash_sub ~key msg ~pos ~len =
    if String.length key <> 16 then invalid_arg "Siphash: key must be 16 bytes";
    if pos < 0 || len < 0 || pos + len > String.length msg then
      invalid_arg "Siphash.hash_sub";
    let k0 = word64_le key 0 and k1 = word64_le key 8 in
    let s =
      { v0 = Int64.logxor 0x736f6d6570736575L k0;
        v1 = Int64.logxor 0x646f72616e646f6dL k1;
        v2 = Int64.logxor 0x6c7967656e657261L k0;
        v3 = Int64.logxor 0x7465646279746573L k1 }
    in
    let n = len in
    let full = n / 8 in
    for i = 0 to full - 1 do
      let m = word64_le msg (pos + (8 * i)) in
      s.v3 <- Int64.logxor s.v3 m;
      sipround s;
      sipround s;
      s.v0 <- Int64.logxor s.v0 m
    done;
    (* final block: remaining bytes plus the length in the top byte *)
    let last = ref (Int64.shift_left (Int64.of_int (n land 0xFF)) 56) in
    for i = 0 to (n mod 8) - 1 do
      last :=
        Int64.logor !last
          (Int64.shift_left
             (Int64.of_int (Char.code msg.[pos + (8 * full) + i]))
             (8 * i))
    done;
    s.v3 <- Int64.logxor s.v3 !last;
    sipround s;
    sipround s;
    s.v0 <- Int64.logxor s.v0 !last;
    s.v2 <- Int64.logxor s.v2 0xFFL;
    sipround s;
    sipround s;
    sipround s;
    sipround s;
    Int64.logxor (Int64.logxor s.v0 s.v1) (Int64.logxor s.v2 s.v3)

  let hash ~key msg = hash_sub ~key msg ~pos:0 ~len:(String.length msg)

  let tag_into ~key msg ~pos ~len dst dpos =
    let h = hash_sub ~key msg ~pos ~len in
    for i = 0 to 7 do
      Bytes.set dst (dpos + i)
        (Char.chr (Int64.to_int (Int64.shift_right_logical h (8 * i)) land 0xFF))
    done

  let tag ~key msg =
    let h = hash ~key msg in
    String.init 8 (fun i ->
        Char.chr (Int64.to_int (Int64.shift_right_logical h (8 * i)) land 0xFF))
end

let rand = Random.State.make [| 15 |]
let rand_string n = String.init n (fun _ -> Char.chr (Random.State.int rand 256))

(* Counters near 2^32 exercise the per-block 32-bit wrap. *)
let rand_counter () =
  match Random.State.int rand 3 with
  | 0 -> Random.State.int rand 4
  | 1 -> 0xFFFFFFFF - Random.State.int rand 4
  | _ -> Random.State.bits rand land 0xFFFFFFFF

let test_chacha_encrypt_oracle () =
  (* every length 0..3000, so every tail length 0..63 many times over *)
  for len = 0 to 3000 do
    let key = rand_string 32 and nonce = rand_string 12 in
    let counter = rand_counter () in
    let msg = rand_string len in
    let want = Oracle_chacha20.encrypt ~key ~counter ~nonce msg in
    let got = Chacha20.encrypt ~key ~counter ~nonce msg in
    if got <> want then Alcotest.failf "encrypt differs at length %d" len
  done

let test_chacha_block_oracle () =
  for i = 1 to 300 do
    let key = rand_string 32 and nonce = rand_string 12 in
    let counter = rand_counter () in
    if Chacha20.block ~key ~counter ~nonce
       <> Oracle_chacha20.block ~key ~counter ~nonce
    then Alcotest.failf "block differs on trial %d" i
  done

let test_chacha_xor_into_oracle () =
  for i = 0 to 600 do
    let key = rand_string 32 and nonce = rand_string 12 in
    let counter = rand_counter () in
    (* lengths 0..63 first (every tail), then random up to 3000 *)
    let len = if i < 64 then i else Random.State.int rand 3001 in
    let pos = 1 + Random.State.int rand 40 in
    let buf = Bytes.of_string (rand_string (pos + len + Random.State.int rand 9)) in
    let want = Bytes.copy buf in
    Chacha20.xor_into ~key ~counter ~nonce buf ~pos ~len;
    Oracle_chacha20.xor_into ~key ~counter ~nonce want ~pos ~len;
    if buf <> want then
      Alcotest.failf "xor_into differs at pos %d len %d" pos len
  done

let test_chacha_xor_iv_into () =
  for i = 0 to 200 do
    let key = rand_string 32 in
    let fixed = Random.State.bits rand land 0xFFFF in
    let iv = Random.State.bits rand lor (Random.State.bits rand lsl 30) in
    let le n v = String.init n (fun j -> Char.chr ((v lsr (8 * j)) land 0xFF)) in
    let nonce = le 4 fixed ^ le 8 iv in
    let len = if i < 64 then i else Random.State.int rand 2000 in
    let a = Bytes.of_string (rand_string (len + 3)) in
    let b = Bytes.copy a in
    Chacha20.xor_into ~key ~nonce a ~pos:3 ~len;
    Chacha20.xor_iv_into ~key ~fixed ~iv b ~pos:3 ~len;
    if a <> b then Alcotest.failf "xor_iv_into differs at len %d" len
  done

let test_siphash_sub_oracle () =
  let key = rand_string 16 in
  for i = 0 to 600 do
    let len = if i < 64 then i else Random.State.int rand 3001 in
    let pos = Random.State.int rand 40 in
    let msg = rand_string (pos + len + Random.State.int rand 9) in
    let want = Oracle_siphash.hash ~key (String.sub msg pos len) in
    if Siphash.hash_sub ~key msg ~pos ~len <> want then
      Alcotest.failf "hash_sub differs at pos %d len %d" pos len
  done

let test_siphash_tag_oracle () =
  for i = 0 to 100 do
    let key = rand_string 16 and msg = rand_string i in
    check Alcotest.string "tag" (Oracle_siphash.tag ~key msg) (Siphash.tag ~key msg);
    let pos = min 1 i in
    let a = Bytes.make 12 '.' in
    let b = Bytes.copy a in
    Siphash.tag_into ~key msg ~pos ~len:(i - pos) a 3;
    Oracle_siphash.tag_into ~key msg ~pos ~len:(i - pos) b 3;
    check Alcotest.bytes "tag_into" b a
  done

let test_kernel_bounds () =
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  let buf = Bytes.make 16 'x' in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "xor_into pos %d len %d" pos len)
        (Invalid_argument "Chacha20.xor_into")
        (fun () -> Chacha20.xor_into ~key ~nonce buf ~pos ~len);
      Alcotest.check_raises
        (Printf.sprintf "xor_iv_into pos %d len %d" pos len)
        (Invalid_argument "Chacha20.xor_iv_into")
        (fun () -> Chacha20.xor_iv_into ~key ~fixed:1 ~iv:2 buf ~pos ~len);
      Alcotest.check_raises
        (Printf.sprintf "hash_sub pos %d len %d" pos len)
        (Invalid_argument "Siphash.hash_sub")
        (fun () ->
          ignore
            (Siphash.hash_sub ~key:(String.make 16 'k') (Bytes.to_string buf)
               ~pos ~len)))
    [ (-1, 4); (0, -1); (13, 4); (0, 17); (17, 0); (max_int, 2) ];
  check Alcotest.string "rejected calls leave the buffer untouched"
    (String.make 16 'x') (Bytes.to_string buf)

(* The kernels' only allocation is per call (ChaCha20's 16-word state,
   SipHash's boxed result): the words a call allocates must be small and
   the same at 64 B as at 4 KiB. *)
let words_of f =
  f ();
  let before = Gc.minor_words () in
  f ();
  let after = Gc.minor_words () in
  int_of_float (after -. before)

let test_kernels_allocation_bounded () =
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  let skey = String.make 16 's' in
  let buf = Bytes.make 4096 'p' in
  let msg = String.make 4096 'm' in
  let xor len () = Chacha20.xor_into ~key ~nonce buf ~pos:0 ~len in
  let sip len () = ignore (Sys.opaque_identity (Siphash.hash_sub ~key:skey msg ~pos:0 ~len)) in
  List.iter
    (fun (name, f) ->
      let small = words_of (f 64) and large = words_of (f 4096) in
      check Alcotest.bool
        (Printf.sprintf "%s allocates <= 48 words (%d at 64 B, %d at 4 KiB)" name
           small large)
        true
        (large <= 48 && large = small))
    [ ("Chacha20.xor_into", xor); ("Siphash.hash_sub", sip) ]

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.bool "same stream" true (Rng.int64 a = Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let c = Rng.split a in
  check Alcotest.bool "split differs" true (Rng.int64 a <> Rng.int64 c)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.failf "int out of bounds: %d" v;
    let f = Rng.float r in
    if f < 0. || f >= 1. then Alcotest.failf "float out of bounds: %f" f
  done

let test_rng_coin_bias () =
  let r = Rng.create 3 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.coin r 0.3 then incr hits
  done;
  let p = Float.of_int !hits /. 10_000. in
  if p < 0.27 || p > 0.33 then Alcotest.failf "coin(0.3) measured %.3f" p

let test_rng_shuffle_permutation () =
  let r = Rng.create 5 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.bool "permutation" true (sorted = Array.init 50 Fun.id)

(* --- Hexdump --- *)

let test_hex_roundtrip () =
  check Alcotest.string "encode" "01ab" (Hexdump.of_string "\x01\xab");
  check Alcotest.string "decode" "\x01\xab" (Hexdump.to_string "01ab");
  check Alcotest.string "case" "\x01\xab" (Hexdump.to_string "01AB")

let prop_hex_roundtrip =
  qtest "hex roundtrip" string_gen (fun s -> Hexdump.to_string (Hexdump.of_string s) = s)

let () =
  Alcotest.run "bitkit"
    [
      ( "bitseq",
        [
          Alcotest.test_case "literals" `Quick test_bitseq_literals;
          Alcotest.test_case "bytes" `Quick test_bitseq_bytes;
          Alcotest.test_case "ops" `Quick test_bitseq_ops;
          Alcotest.test_case "find_sub" `Quick test_bitseq_find_sub;
          Alcotest.test_case "flip" `Quick test_bitseq_flip;
          prop_bitseq_roundtrip;
          prop_bitseq_equal_structural;
          prop_bitseq_append_length;
          prop_bitseq_of_bytes_bits;
        ] );
      ( "bitio",
        [
          Alcotest.test_case "fields" `Quick test_bitio_fields;
          Alcotest.test_case "truncated" `Quick test_bitio_truncated;
          Alcotest.test_case "alignment" `Quick test_bitio_alignment;
          prop_bitio_u32_roundtrip;
        ] );
      ( "crc",
        [
          Alcotest.test_case "catalogue vectors" `Quick test_crc_catalogue;
          Alcotest.test_case "detects single flips" `Quick test_crc_detects_flip;
          Alcotest.test_case "digest_sub" `Quick test_crc_digest_sub;
          prop_crc_incremental_disjoint;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "internet" `Quick test_internet_checksum;
          Alcotest.test_case "parity" `Quick test_parity;
          Alcotest.test_case "fletcher/adler" `Quick test_fletcher_adler;
          prop_internet_valid;
        ] );
      ( "crypto",
        [
          Alcotest.test_case "chacha quarter round (RFC)" `Quick test_chacha_quarter_round;
          Alcotest.test_case "chacha block (RFC)" `Quick test_chacha_block_vector;
          Alcotest.test_case "chacha sizes" `Quick test_chacha_bad_sizes;
          prop_chacha_involution;
          prop_chacha_key_sensitivity;
          Alcotest.test_case "siphash vectors" `Quick test_siphash_vectors;
          prop_siphash_avalanche;
          Alcotest.test_case "chacha encrypt = reference" `Quick
            test_chacha_encrypt_oracle;
          Alcotest.test_case "chacha block = reference" `Quick
            test_chacha_block_oracle;
          Alcotest.test_case "chacha xor_into = reference" `Quick
            test_chacha_xor_into_oracle;
          Alcotest.test_case "chacha xor_iv_into = xor_into" `Quick
            test_chacha_xor_iv_into;
          Alcotest.test_case "siphash hash_sub = reference" `Quick
            test_siphash_sub_oracle;
          Alcotest.test_case "siphash tag/tag_into = reference" `Quick
            test_siphash_tag_oracle;
          Alcotest.test_case "kernel range checks" `Quick test_kernel_bounds;
          Alcotest.test_case "kernel allocation bounded" `Quick
            test_kernels_allocation_bounded;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "coin bias" `Quick test_rng_coin_bias;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
        ] );
      ( "hexdump",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          prop_hex_roundtrip;
        ] );
    ]
