(** The record (security) sublayer — the paper's §5 QUIC observation
    ("QUIC ... has a clean sub-layering between networking (the transport
    layer) and security (the record layer)") made concrete: a sublayer
    {e inserted} between CM and DM that encrypts and authenticates every
    PDU above the ports.

    Insertion is the strongest form of the replaceability claim: because
    this module's up and down ports are the same opaque wirebuf/slice
    pair every other sublayer crossing uses,
    [Machine.Stack (Cm) (Machine.Stack (Rec) (Dm))] composes with
    {e zero} changes to DM, CM, RD or OSR — none of them can tell the
    records are encrypted (test T3: the record fields are invisible bits
    to every other sublayer).

    Wire record: [seq:64 LE | ciphertext | tag:64]. Confidentiality is
    ChaCha20 (RFC 8439) keyed per direction (the nonce binds the sender's
    port and sequence number, so the two directions of a connection never
    reuse a nonce under the shared key); integrity is a SipHash-2-4 tag
    over the sender port, sequence number and ciphertext. Records that
    fail authentication are dropped and counted — RD's retransmission
    machinery repairs the hole, so a corrupting channel needs no separate
    CRC guard under this stack. Keys are preshared (the simulator has no
    PKI); replay is harmless because CM/RD deduplicate above. *)

type t

val initial :
  ?stats:Sublayer.Stats.scope ->
  ?span:Sublayer.Span.ctx ->
  ?pool:Bitkit.Pool.t ->
  key:string ->
  local_port:int ->
  remote_port:int ->
  unit ->
  t
(** [key] is the 32-byte shared secret. Counters (when [stats] is
    given): [records_sent], [auth_failures], [copied_seal_bytes]. When
    [span] is given, instant [seal]/[open]/[auth_fail] markers record
    each record.

    Every record is sealed in place in one buffer laid out as
    [port:16 | seq:64 | ciphertext | tag:64]: the plaintext is emitted
    once, encrypted by in-place keystream XOR and tagged over the
    buffer, and the wire record is the buffer past its port prefix.
    When [pool] is given the buffer is a loaned arena slot; without one,
    or when the pool has no room, it is a fresh heap buffer — the same
    code and the same bytes either way. *)

val records_sent : t -> int
val auth_failures : t -> int

val seal : t -> string -> t * string
(** Encrypt-and-authenticate one PDU through the machine's seal (exposed
    for unit tests). *)

val open_ : t -> string -> string option
(** Verify-and-decrypt one record through the machine's open; [None] if
    forged, damaged or too short, counted in [auth_failures]. The record
    is copied once, authenticated in place and decrypted in place. *)

include
  Sublayer.Machine.S
    with type t := t
     and type up_req = Bitkit.Wirebuf.t
     and type up_ind = Bitkit.Slice.t
     and type down_req = Bitkit.Wirebuf.t
     and type down_ind = Bitkit.Slice.t
     and type timer = Sublayer.Machine.Nothing.t
