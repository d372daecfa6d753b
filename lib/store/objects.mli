(** Content-addressed on-disk object store with a JSONL manifest.

    Objects live at [objects/<aa>/<digest>] (MD5 of the bytes, sharded
    by the first two hex chars); the manifest maps cache keys to
    content digests, one JSON object per line.  Publishes are atomic
    (tmp file + [rename], fsynced manifest append), reads verify the
    content address and quarantine anything that fails — a corrupted
    object is a {e miss}, never a wrong answer.  See DESIGN.md
    "Result store". *)

type t

type entry = {
  key : string;  (** cache key ({!Key.derive}) *)
  digest : string;  (** content address (MD5 hex of the bytes) *)
  size : int;
  time : float;  (** publish time (epoch seconds) *)
  meta : (string * string) list;  (** human-readable key components *)
}

val default_dir : string
(** [".ephemeral-store"]. *)

val open_ : dir:string -> t
(** Create the layout if missing and load the manifest.  Malformed
    (e.g. crash-truncated) manifest lines are skipped. *)

val entries : t -> entry list
(** Every manifest line in publish order (oldest first); the last
    entry for a key is the live one. *)

val find : t -> key:string -> entry option
(** The live entry for [key], without touching the object. *)

val get : t -> key:string -> (string * entry) option
(** Read and verify the object bound to [key].  [None] if the key is
    unbound, the object file is gone, or its bytes no longer match the
    content address — in the last case the file is moved to
    [quarantine/] first so a subsequent {!put} repopulates it. *)

val put : t -> key:string -> meta:(string * string) list -> string -> entry
(** Publish bytes under [key]: write the object atomically (skipped if
    the address already holds intact identical content), append a
    manifest line, and return the entry.  Bumps the
    ["store.bytes_written"] counter when telemetry is on. *)

val quarantine : t -> entry -> unit
(** Move an entry's object into [quarantine/] (used by callers whose
    payload-level decode failed, e.g. a bad codec CRC). *)

val object_path : t -> digest:string -> string

(** {2 Maintenance hooks (used by {!Gc})} *)

val rewrite_manifest : t -> entry list -> unit
(** Atomically replace the manifest with exactly [kept] (chronological
    order) and reload the in-memory index. *)

val delete_object : t -> digest:string -> unit

val object_digests_on_disk : t -> string list

val quarantine_dir : t -> string
val manifest_path : t -> string
