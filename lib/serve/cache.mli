(** Text-keyed LRU cache of warm {!Rtlb.Incremental} handles.

    A key is the digest of a request's application text (the daemon's
    [job_digest]); each entry also keeps the text, and a hit requires
    the request's text to be byte-equal to it, so a digest collision
    can never serve another instance's handle.  Two texts of one
    instance are two entries.

    Claims: {!checkout} {e claims} its key, hit or miss, and the caller
    holds the claim until it ends in exactly one {!checkin}, {!release}
    or {!discard}.  A checked-out handle is out of the LRU, so at most
    one request ever touches a handle (a query adds to the handle's
    block cache).  A {!checkout} of a key another caller holds waits
    for that claim to end; every end wakes the waiters, and each then
    hits, or misses and builds the handle itself if nothing was checked
    in.  So one instance is never built twice at once.  A request that
    crashes mid-use {!discard}s its claim and never checks the handle
    back in — crash isolation by construction: the cache cannot hold a
    half-mutated handle. *)

type t

val create : ?tracer:Rtlb_obs.Tracer.t -> capacity:int -> unit -> t
(** [capacity] may be [0] (caching disabled: every checkin evicts).
    @raise Invalid_argument when [capacity < 0]. *)

val length : t -> int
(** Entries currently resident (checked-out handles are not counted). *)

val mem : t -> string -> bool
(** Is a handle for this key resident, or the key claimed right now?
    Advisory only — the answer can be stale by the time it is used;
    priority admission reads it, where a stale answer merely misfiles
    one request. *)

val checkout : t -> string -> text:string -> Rtlb.Incremental.t option
(** Claim a key, first waiting while another caller holds it.  [Some]:
    the resident handle built from [text], removed from the LRU.
    [None]: a miss (nothing resident under the key, or an entry of
    another text) — the caller builds the handle.  Either way the
    caller now holds the claim and must end it.  A caller must not
    check out a key it already holds: it would wait for itself. *)

val checkin : t -> string -> text:string -> Rtlb.Incremental.t -> unit
(** End the claim on the key (if any) and insert the handle built from
    [text] as most-recently-used, replacing any entry under the key;
    evicts beyond capacity.  Never check in a handle whose base analysis
    is partial — budget-cut results must not serve later requests as if
    exhaustive. *)

val release : t -> string -> unit
(** End the claim on the key with nothing to check in: a build that
    failed, or whose result is partial. *)

val discard : t -> string -> unit
(** End the claim on the key of a checked-out handle that will not be
    checked back in (a crash-isolation drop), and record it in the
    [Evictions] counter. *)
