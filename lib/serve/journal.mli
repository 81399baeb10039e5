(** Warm-state journal for {!Server}: an append-only, checksummed,
    bounded log of the instances the daemon answered (the full
    application text), replayed on (re)start to pre-warm the handle
    cache in the background.

    Durability discipline (the same as {!Rtfmt.Checkpoint}): every
    record carries a checksum recomputed on load; a record that fails
    to parse or verify — or a torn final line from an append cut short
    by a crash — is dropped together with everything after it, and the
    clean prefix is rewritten atomically.  A corrupt tail is never
    trusted, so the journal can only lose warmth, never correctness.

    The file is log-structured: appends are single [O_APPEND] writes,
    duplicates only move in the in-memory recency order, and the file
    is compacted (rewritten through {!Rtfmt.Atomic_io} with just the
    live entries) once it exceeds twice the capacity.  Thread-safe.

    Format: an [rtlb-journal v1] header line, then one JSON object per
    record, [{"sum": md5(tag ^ "\000" ^ app), "engine": tag, "app": app}].
    The tag is a leftover of the deprecated per-request engine: new
    records carry ["record"], records tagged ["soa"] still load (each
    checked against its own tag), and both tags of one text are one
    entry. *)

type t

type entry = { je_app : string }

val open_ : ?tracer:Rtlb_obs.Tracer.t -> capacity:int -> string -> t
(** Open (or create) the journal at a path, validating any existing
    content line by line and repairing in place if anything had to be
    dropped or trimmed.
    @raise Invalid_argument when [capacity < 1].
    @raise Unix.Unix_error when the path cannot be created at all. *)

val record : t -> app:string -> unit
(** Note that an instance just produced a successful analyze/what-if
    reply.  Duplicate of the current head: no-op.  Known digest: moved
    to the front of the recency order.  New digest: appended (possibly
    evicting the oldest from the live set).  Write errors are swallowed
    — journaling never fails a request. *)

val entries : t -> entry list
(** Live entries, most recently used first — the replay order. *)

val length : t -> int

val dropped_tail : t -> int
(** Lines dropped as corrupt/torn when the journal was opened. *)

val path : t -> string

val close : t -> unit
(** Close the append descriptor (entries stay readable). *)
