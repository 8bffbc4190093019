(** SipHash-2-4 keyed hash (Aumasson–Bernstein).

    Used by the transport record sublayer as its authentication tag.
    Validated against the reference test vectors in the test suite. The
    state is held unboxed, so hashing allocates only the boxed result,
    whatever the length. *)

val hash : key:string -> string -> int64
(** [hash ~key msg] with a 16-byte [key]. *)

val hash_sub : key:string -> string -> pos:int -> len:int -> int64
(** {!hash} over the substring [pos, pos+len) without copying it — how
    the record sublayer authenticates a record laid out in a buffer.
    Raises [Invalid_argument] on a bad key size or an out-of-range
    [pos]/[len]. *)

val tag_into : key:string -> string -> pos:int -> len:int -> Bytes.t -> int -> unit
(** [tag_into ~key msg ~pos ~len dst dpos] writes the 8-byte tag of the
    substring directly into [dst] at [dpos]. *)

val tag : key:string -> string -> string
(** The 8-byte little-endian serialisation of {!hash}. *)
