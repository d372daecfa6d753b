(* Table-driven CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the
   per-record checksum of the store's on-disk formats.  Dependency-free
   on purpose: objects must stay readable by any future build. *)

(* Built at module initialisation, not behind a [lazy]: pool domains
   checksum concurrently, and two of them forcing one lazy at once
   raise [CamlinternalLazy.Undefined]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let digest_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.digest_sub";
  let crc = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int
        (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code s.[i]))) 0xFFl)
    in
    crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8)
  done;
  Int32.logxor !crc 0xFFFFFFFFl

let digest s = digest_sub s ~pos:0 ~len:(String.length s)
