(** ChaCha20 stream cipher (RFC 8439).

    Used by the transport record sublayer for payload confidentiality.
    The implementation is validated against the RFC's quarter-round and
    block-function test vectors in the test suite. Encryption and
    decryption are the same operation (XOR keystream).

    Every entry point runs one keystream core over a 16-word state built
    once per call, XORing a 32-bit word at a time; the only allocation
    is that state (and the result of {!encrypt}/{!block}), whatever the
    length. *)

val block : key:string -> counter:int -> nonce:string -> string
(** [block ~key ~counter ~nonce] is the 64-byte keystream block for a
    32-byte [key] and 12-byte [nonce]. *)

val encrypt : key:string -> ?counter:int -> nonce:string -> string -> string
(** XOR the input with the keystream starting at block [counter]
    (default 1, as in the RFC's AEAD construction). *)

val xor_into :
  key:string -> ?counter:int -> nonce:string -> Bytes.t -> pos:int -> len:int -> unit
(** In-place {!encrypt} over [b.[pos..pos+len-1]]: transforms bytes
    already laid out in a buffer (a record under construction in a heap
    buffer or an arena slot) without a second buffer. Raises
    [Invalid_argument] on a bad key or nonce size or an out-of-range
    [pos]/[len], before touching [b]. *)

val xor_iv_into :
  key:string -> fixed:int -> iv:int -> Bytes.t -> pos:int -> len:int -> unit
(** {!xor_into} from block 1 with the 96-bit nonce given as RFC 8439
    §2.8's 32-bit fixed part and 64-bit IV — the nonce bytes are
    [le32 fixed] followed by [le64 iv] — so a caller that numbers its
    messages builds no nonce string. *)

val quarter_round : int * int * int * int -> int * int * int * int
(** Exposed only for the RFC 8439 §2.1.1 test vector; the keystream
    core rounds its state in place instead. Operands and results are
    32-bit values in OCaml ints. *)
