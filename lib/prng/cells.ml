(* Unsigned 16-bit cells in a [Bytes.t], read and written with the
   native-endian 16-bit bytes primitives, which compile to one load or
   store (behind a bounds check in [get]) wherever the [external] is
   visible. *)
type t = Bytes.t

let max_value = 0xFFFF
let create len = Bytes.create (2 * len)
let length c = Bytes.length c / 2

external get : Bytes.t -> int -> int = "%caml_bytes_get16"
external unsafe_get : Bytes.t -> int -> int = "%caml_bytes_get16u"
external unsafe_set : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
