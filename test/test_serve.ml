(* lib/serve: wire protocol codecs and framing, manifest corpus, the
   batching query engine's robustness contract (admission bound,
   deadlines, drain-flush, caches), and a live in-process server —
   plus the retry/shutdown/store regressions that ride with it:
   deterministic backoff jitter and retry budgets, the
   register-during-drain race, and concurrent quarantine recovery. *)

open Helpers
module Proto = Serve.Proto
module Corpus = Serve.Corpus
module Engine = Serve.Engine
module Server = Serve.Server
module Client = Serve.Client
module Objects = Store.Objects

let check_string = Alcotest.(check string)

(* Fresh scratch directory per test; best-effort removal. *)
let with_tmp_dir f =
  let dir = Filename.temp_file "ephemeral-test" ".serve" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> Store.Fsio.remove_tree dir) (fun () -> f dir)

let flip_byte path pos =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = really_input_string ic len in
  close_in ic;
  let b = Bytes.of_string bytes in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let count_files dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.length (Sys.readdir dir)
  else 0

(* ------------------------------------------------------------------ *)
(* Protocol codecs *)

let q ?(target = 0) ?(deadline_ms = 0) instance source =
  { Proto.instance; source; target; deadline_ms }

let request_roundtrip () =
  let reqs =
    [
      Proto.Ping; Proto.Health; Proto.Ready; Proto.List; Proto.Stats;
      Proto.Foremost (q "clq" 3 ~target:7 ~deadline_ms:250);
      Proto.Arrivals (q "a-b" 0);
      Proto.Reach (q "x" 12 ~deadline_ms:1);
      Proto.Ecc (q "star16" 15);
    ]
  in
  List.iter
    (fun r ->
      match Proto.decode_request (Proto.encode_request r) with
      | Stdlib.Ok r' -> check_bool "request round-trips" true (r = r')
      | Stdlib.Error (_, m) -> Alcotest.failf "decode failed: %s" m)
    reqs

let response_roundtrip () =
  let resps =
    [
      Proto.Ok_empty;
      Proto.Ok_value (Some 42);
      Proto.Ok_value None;
      Proto.Ok_count 0;
      Proto.Ok_count 100_000;
      Proto.Ok_vector [||];
      Proto.Ok_vector [| 0; 17; max_int; 3; max_int |];
      Proto.Ok_list [ ("clq", "available", "n=8 a=8 dense"); ("bad", "failed", "bad spec: missing id") ];
      Proto.Ok_list [];
      Proto.Ok_text "queries=12 shed=0";
      Proto.Error (Proto.Resource_exhausted, "queue full");
      Proto.Error (Proto.Deadline_exceeded, "");
    ]
  in
  List.iter
    (fun r ->
      match Proto.decode_response (Proto.encode_response r) with
      | Stdlib.Ok r' -> check_bool "response round-trips" true (r = r')
      | Stdlib.Error m -> Alcotest.failf "decode failed: %s" m)
    resps

let all_error_codes =
  [
    Proto.Parse_error; Proto.Unknown_op; Proto.Unknown_instance;
    Proto.Unavailable; Proto.Resource_exhausted; Proto.Deadline_exceeded;
    Proto.Shutting_down; Proto.Too_large; Proto.Bad_arg; Proto.Internal;
  ]

let error_code_roundtrip () =
  List.iter
    (fun c ->
      match Proto.decode_response (Proto.encode_response (Proto.Error (c, "m"))) with
      | Stdlib.Ok (Proto.Error (c', "m")) ->
        check_bool
          (Printf.sprintf "code %s survives" (Proto.error_code_to_string c))
          true (c = c')
      | _ -> Alcotest.fail "error response did not round-trip")
    all_error_codes

let decode_rejects_garbage () =
  (match Proto.decode_request "\xee" with
  | Stdlib.Error (Proto.Unknown_op, _) -> ()
  | _ -> Alcotest.fail "unknown opcode must be Unknown_op");
  (match Proto.decode_request "\x10\x00" with
  | Stdlib.Error (Proto.Parse_error, _) -> ()
  | _ -> Alcotest.fail "truncated query must be Parse_error");
  (match Proto.decode_request "" with
  | Stdlib.Error (Proto.Parse_error, _) -> ()
  | _ -> Alcotest.fail "empty request must be Parse_error");
  (match Proto.decode_request (Proto.encode_request Proto.Ping ^ "\x00") with
  | Stdlib.Error (Proto.Parse_error, _) -> ()
  | _ -> Alcotest.fail "trailing bytes must be Parse_error");
  (match Proto.decode_response (Proto.encode_response Proto.Ok_empty ^ "!") with
  | Stdlib.Error _ -> ()
  | Stdlib.Ok _ -> Alcotest.fail "trailing response bytes must fail");
  match Proto.decode_response "" with
  | Stdlib.Error _ -> ()
  | Stdlib.Ok _ -> Alcotest.fail "empty response must fail"

let render_deterministic () =
  check_string "value" (Proto.render_response (Proto.Ok_value (Some 3)))
    (Proto.render_response (Proto.Ok_value (Some 3)));
  check_bool "unreachable renders as dash" true
    (contains (Proto.render_response (Proto.Ok_value None)) "-");
  check_bool "vector sentinel renders as dash" true
    (contains (Proto.render_response (Proto.Ok_vector [| 1; max_int |])) "-")

(* ------------------------------------------------------------------ *)
(* Framing over a socketpair *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let frame_bytes payload =
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  Bytes.to_string b

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let expect_frame what want = function
  | Proto.Frame s -> check_string what want s
  | _ -> Alcotest.failf "%s: expected a frame" what

(* Both ways of reading: one-shot, and through a connection's reader. *)
let readers =
  [
    ("read_frame", fun fd () -> Proto.read_frame ~deadline_s:2. fd);
    ( "reader",
      fun fd ->
        let r = Proto.reader fd in
        fun () -> Proto.next_frame ~deadline_s:2. r );
  ]

let frame_roundtrip () =
  with_socketpair (fun a b ->
      Proto.write_frame a "hello";
      Proto.write_frame a "";
      (match Proto.read_frame ~deadline_s:2. b with
      | Proto.Frame s -> check_string "payload" "hello" s
      | _ -> Alcotest.fail "expected a frame");
      (match Proto.read_frame ~deadline_s:2. b with
      | Proto.Frame s -> check_string "empty payload" "" s
      | _ -> Alcotest.fail "expected the empty frame");
      (* One-shot reads take nothing past their frame: two frames in
         one write come out of two calls. *)
      write_all a (frame_bytes "one" ^ frame_bytes "two");
      expect_frame "first call" "one" (Proto.read_frame ~deadline_s:2. b);
      expect_frame "second call" "two" (Proto.read_frame ~deadline_s:2. b))

(* A close ends the stream, at a frame boundary or inside a frame: the
   whole frames before it come back, then [Eof]. *)
let frame_eof () =
  List.iter
    (fun (what, reader) ->
      List.iter
        (fun (whole, cut) ->
          with_socketpair (fun a b ->
              write_all a
                (String.concat "" (List.map frame_bytes whole)
                ^ String.sub (frame_bytes "0123456789") 0 cut);
              Unix.close a;
              let next = reader b in
              List.iter (fun want -> expect_frame what want (next ())) whole;
              check_bool
                (Printf.sprintf "%s: eof after %d frames and %d bytes" what
                   (List.length whole) cut)
                true
                (next () = Proto.Eof)))
        [ ([], 0); ([ "a"; ""; "ccc" ], 0); ([ "a" ], 2); ([ "a" ], 4); ([], 9) ])
    readers

(* A peer that closes with a frame unread resets the stream: the read
   sees ECONNRESET, which is that peer's end of stream like any other
   close.  The router's shard links depend on it: a shard killed with
   a forwarded request unread must answer the client UNAVAILABLE, not
   drop its connection. *)
let frame_reset_is_eof () =
  with_socketpair (fun a b ->
      Proto.write_frame a (Proto.encode_request Proto.Ping);
      Unix.close b;
      match Proto.read_frame ~deadline_s:2. a with
      | Proto.Eof -> ()
      | _ -> Alcotest.fail "reset by peer must read Eof")

let frame_timeout () =
  with_socketpair (fun a b ->
      (* Half a header, then silence: the slow-loris read must give up
         at its deadline rather than block. *)
      let n = Unix.write_substring a "\x00\x00" 0 2 in
      check_int "partial header written" 2 n;
      let t0 = Unix.gettimeofday () in
      match Proto.read_frame ~deadline_s:0.1 b with
      | Proto.Timeout ->
        check_bool "returned promptly" true (Unix.gettimeofday () -. t0 < 2.)
      | _ -> Alcotest.fail "stalled frame must time out")

let frame_oversized () =
  (* A header declaring max_frame + 1 bytes, and nothing after it: the
     reader must refuse from the header alone, before allocating or
     waiting for a payload. *)
  List.iter
    (fun (what, reader) ->
      with_socketpair (fun a b ->
          let declared = Proto.max_frame + 1 in
          let hdr = Bytes.create 4 in
          Bytes.set_int32_be hdr 0 (Int32.of_int declared);
          ignore (Unix.write a hdr 0 4);
          match reader b () with
          | Proto.Oversized n -> check_int (what ^ ": declared length") declared n
          | _ -> Alcotest.failf "%s: oversized declaration must be refused" what))
    readers;
  with_socketpair (fun a _ ->
      Alcotest.check_raises "oversized write refused"
        (Invalid_argument "Proto.write_frame: payload too large")
        (fun () -> Proto.write_frame a (String.make (Proto.max_frame + 1) 'x')))

(* ------------------------------------------------------------------ *)
(* The buffered frame reader over a socketpair *)

(* Payload [i]: [size] bytes mixing its index and offsets, so a frame
   returned shifted, truncated or out of place differs. *)
let payload_of i size =
  String.init size (fun k -> Char.chr (((k * 31) + (i * 7) + (k lsr 8)) land 0xFF))

(* How the writer puts one frame on the wire: its first 68 bytes one
   at a time; the header in one write and the payload in another;
   joined to the frames after it in one write; or joined and then cut
   in two at a random point. *)
type split = Trickle | Apart | Joined | Cut of int

let gen_split_frames =
  QCheck2.Gen.(
    let size =
      frequency
        [ (6, int_range 0 48); (3, int_range 49 9000); (1, return Proto.max_frame) ]
    in
    let split =
      frequency
        [
          (2, return Trickle); (2, return Apart); (3, return Joined);
          (2, map (fun k -> Cut k) (int_range 0 10_000));
        ]
    in
    list_size (int_range 0 10) (pair size split))

let print_split_frames frames =
  String.concat "; "
    (List.map
       (fun (size, split) ->
         Printf.sprintf "%d %s" size
           (match split with
           | Trickle -> "trickle"
           | Apart -> "apart"
           | Joined -> "joined"
           | Cut k -> Printf.sprintf "cut %d" k))
       frames)

(* Put the frames of [payloads] on [fd] as [splits] say. *)
let write_split fd payloads splits =
  let pending = Buffer.create 64 in
  let flush () =
    write_all fd (Buffer.contents pending);
    Buffer.clear pending
  in
  List.iter2
    (fun payload split ->
      let f = frame_bytes payload in
      match split with
      | Trickle ->
        flush ();
        let k = min (String.length f) 68 in
        String.iteri (fun i c -> if i < k then write_all fd (String.make 1 c)) f;
        write_all fd (String.sub f k (String.length f - k))
      | Apart ->
        flush ();
        write_all fd (String.sub f 0 4);
        write_all fd payload
      | Joined -> Buffer.add_string pending f
      | Cut k ->
        Buffer.add_string pending f;
        let s = Buffer.contents pending in
        Buffer.clear pending;
        let k = k mod (String.length s + 1) in
        write_all fd (String.sub s 0 k);
        write_all fd (String.sub s k (String.length s - k)))
    payloads splits;
  flush ()

(* Whatever the writer's splits, the reader returns every frame, in
   order and whole, then [Eof] at the close. *)
let prop_reader_sequences frames =
  let payloads = List.mapi (fun i (size, _) -> payload_of i size) frames in
  with_socketpair (fun a b ->
      let failure = ref None in
      let writer =
        Thread.create
          (fun () ->
            Fun.protect
              ~finally:(fun () -> Unix.close a)
              (fun () ->
                try write_split a payloads (List.map snd frames)
                with e -> failure := Some e))
          ()
      in
      let r = Proto.reader b in
      let rec read acc =
        match Proto.next_frame ~deadline_s:10. r with
        | Proto.Frame s -> read (s :: acc)
        | last -> (List.rev acc, last)
      in
      let got, last = read [] in
      (* A reader that stopped early must not leave the writer blocked
         on a full socket. *)
      let rest = Bytes.create 65536 in
      while Unix.read b rest 0 65536 > 0 do () done;
      Thread.join writer;
      Option.iter raise !failure;
      got = payloads && last = Proto.Eof)

(* A frame whose header and part of whose payload are already in the
   buffer still times out at its own deadline when the rest stalls. *)
let reader_stalled_payload_times_out () =
  with_socketpair (fun a b ->
      write_all a (frame_bytes "first" ^ String.sub (frame_bytes "0123456789") 0 7);
      let r = Proto.reader b in
      expect_frame "first frame" "first" (Proto.next_frame ~deadline_s:2. r);
      let t0 = Obs.Clock.wall_s () in
      (match Proto.next_frame ~deadline_s:0.2 r with
      | Proto.Timeout -> ()
      | _ -> Alcotest.fail "a stalled payload must time out");
      let waited = Obs.Clock.wall_s () -. t0 in
      check_bool "not before its deadline" true (waited >= 0.2);
      check_bool "at its deadline" true (waited < 1.5))

(* Bytes that keep arriving do not extend a frame's deadline: a frame
   trickled at one byte per 40 ms needs ~0.7 s, and a 0.2 s deadline
   ends it. *)
let reader_deadline_bounds_a_trickle () =
  with_socketpair (fun a b ->
      let f = frame_bytes "0123456789abc" in
      let stop = Atomic.make false in
      let writer =
        Thread.create
          (fun () ->
            String.iter
              (fun c ->
                if not (Atomic.get stop) then begin
                  write_all a (String.make 1 c);
                  Thread.delay 0.04
                end)
              f)
          ()
      in
      let t0 = Obs.Clock.wall_s () in
      let got = Proto.next_frame ~deadline_s:0.2 (Proto.reader b) in
      let waited = Obs.Clock.wall_s () -. t0 in
      Atomic.set stop true;
      Thread.join writer;
      check_bool "trickled frame times out" true (got = Proto.Timeout);
      check_bool "at its deadline, not the trickle's end" true (waited < 0.6))

(* A fill stops at the 4 KiB buffer's end wherever that falls in the
   stream: inside the next header, whose bytes then move to the front,
   or inside its payload, whose rest is read straight into it. *)
let reader_frames_across_the_buffer_end () =
  List.iter
    (fun c ->
      with_socketpair (fun a b ->
          let first = String.make (4092 - c) 'x' in
          let frames = [ first; "second"; "third" ] in
          write_all a (String.concat "" (List.map frame_bytes frames));
          let r = Proto.reader b in
          List.iter
            (fun want ->
              expect_frame
                (Printf.sprintf "%d bytes of the second frame buffered" c)
                want
                (Proto.next_frame ~deadline_s:2. r))
            frames))
    [ 1; 2; 3; 4; 6 ]

(* ------------------------------------------------------------------ *)
(* Codec properties: encode∘decode = id over generated values, and no
   truncation of a valid payload ever parses — a shard decodes the
   bytes the router forwarded, so rejection behaviour is part of the
   sharded byte-identity contract. *)

let gen_query =
  QCheck2.Gen.(
    let* instance = string_size (int_range 0 48) in
    let* source = int_range 0 0xFFFF in
    let* target = int_range 0 0xFFFF in
    let+ deadline_ms = int_range 0 1_000_000 in
    { Proto.instance; source; target; deadline_ms })

let gen_request =
  QCheck2.Gen.(
    let* q = gen_query in
    oneofl
      [
        Proto.Ping; Proto.Health; Proto.Ready; Proto.List; Proto.Stats;
        Proto.Foremost q; Proto.Arrivals q; Proto.Reach q; Proto.Ecc q;
      ])

let gen_response =
  QCheck2.Gen.(
    let small = string_size (int_range 0 32) in
    (* u32 codomain with the unreachable sentinel sprinkled in. *)
    let cell = map (fun x -> if x mod 7 = 0 then max_int else x) (int_range 0 100_000) in
    oneof
      [
        return Proto.Ok_empty;
        map (fun v -> Proto.Ok_value v) (option (int_range 0 1_000_000));
        map (fun k -> Proto.Ok_count k) (int_range 0 10_000_000);
        map (fun l -> Proto.Ok_vector (Array.of_list l))
          (list_size (int_range 0 24) cell);
        map (fun rows -> Proto.Ok_list rows)
          (list_size (int_range 0 6) (triple small small small));
        map (fun s -> Proto.Ok_text s) small;
        map2 (fun c m -> Proto.Error (c, m)) (oneofl all_error_codes) small;
      ])

let prop_request_roundtrip r =
  match Proto.decode_request (Proto.encode_request r) with
  | Stdlib.Ok r' -> r = r'
  | Stdlib.Error (_, m) -> QCheck2.Test.fail_reportf "decode failed: %s" m

let prop_response_roundtrip r =
  match Proto.decode_response (Proto.encode_response r) with
  | Stdlib.Ok r' -> r = r'
  | Stdlib.Error m -> QCheck2.Test.fail_reportf "decode failed: %s" m

(* Every strict prefix of a valid request payload must be rejected —
   there is no valid payload that is also a prefix of a longer one. *)
let prop_request_prefix_rejected r =
  let enc = Proto.encode_request r in
  let ok = ref true in
  for len = 0 to String.length enc - 1 do
    match Proto.decode_request (String.sub enc 0 len) with
    | Stdlib.Error _ -> ()
    | Stdlib.Ok _ -> ok := false
  done;
  (* ...and so must trailing garbage after a complete one. *)
  (match Proto.decode_request (enc ^ "\x00") with
  | Stdlib.Error (Proto.Parse_error, _) -> ()
  | _ -> ok := false);
  !ok

let prop_response_prefix_rejected r =
  let enc = Proto.encode_response r in
  let ok = ref true in
  for len = 0 to String.length enc - 1 do
    match Proto.decode_response (String.sub enc 0 len) with
    | Stdlib.Error _ -> ()
    | Stdlib.Ok _ -> ok := false
  done;
  !ok

(* The router's routing key agrees with the full decoder: queries peek
   their instance id, control ops peek nothing. *)
let prop_peek_agrees r =
  let peeked = Proto.peek_instance (Proto.encode_request r) in
  match r with
  | Proto.Foremost q | Proto.Arrivals q | Proto.Reach q | Proto.Ecc q ->
    peeked = Some q.Proto.instance
  | _ -> peeked = None

(* Hand-built rejection vectors: payloads that lie about their instance
   length, or stop mid-operand. *)
let query_truncation_vectors () =
  let mk op k body =
    Printf.sprintf "%c%c%c%s" (Char.chr op)
      (Char.chr ((k lsr 8) land 0xff))
      (Char.chr (k land 0xff))
      body
  in
  List.iter
    (fun op ->
      (* Declared instance length runs past the payload. *)
      (match Proto.decode_request (mk op 9 "short") with
      | Stdlib.Error (Proto.Parse_error, _) -> ()
      | _ -> Alcotest.failf "op %#x: lying length must be Parse_error" op);
      check_bool
        (Printf.sprintf "op %#x: peek refuses the lying length" op)
        true
        (Proto.peek_instance (mk op 9 "short") = None);
      (* Maximal u16 length on a near-empty payload. *)
      (match Proto.decode_request (mk op 0xFFFF "x") with
      | Stdlib.Error (Proto.Parse_error, _) -> ()
      | _ -> Alcotest.failf "op %#x: oversize length must be Parse_error" op);
      (* Instance present, u32 operands missing. *)
      match Proto.decode_request (mk op 2 "ab") with
      | Stdlib.Error (Proto.Parse_error, _) -> ()
      | _ -> Alcotest.failf "op %#x: missing operands must be Parse_error" op)
    [ 0x10; 0x11; 0x12; 0x13 ]

(* ------------------------------------------------------------------ *)
(* Corpus: spec parsing and degraded loading *)

let spec_defaults () =
  match Corpus.parse_spec "id=clq,family=clique,n=8" with
  | Stdlib.Ok s ->
    check_string "id" "clq" s.Corpus.id;
    check_int "a defaults to n" 8 s.Corpus.a;
    check_int "r defaults to 1" 1 s.Corpus.r;
    check_int "seed defaults to 1" 1 s.Corpus.seed;
    check_string "canonical form" "id=clq,family=clique,n=8,a=8,r=1,seed=1"
      (Corpus.spec_to_string s)
  | Stdlib.Error m -> Alcotest.failf "parse failed: %s" m

let spec_errors () =
  let expect_err line =
    match Corpus.parse_spec line with
    | Stdlib.Error _ -> ()
    | Stdlib.Ok _ -> Alcotest.failf "%S must not parse" line
  in
  expect_err "family=clique,n=8";           (* missing id *)
  expect_err "id=x,family=clique";          (* missing n *)
  expect_err "id=x,family=clique,n=0";      (* non-positive n *)
  expect_err "id=x,family=nope,n=4";        (* unknown family *)
  expect_err "id=x,family=clique,n=four";   (* non-integer *)
  expect_err "id=x,family=clique,n=4,n=5";  (* duplicate key *)
  expect_err "id=x,family=clique,n=4,z=1";  (* unknown key *)
  expect_err "id=x,family=clique,n=4,r=0";  (* r < 1 *)
  expect_err "just words"                   (* not key=value at all *)

let degraded_load () =
  let corpus =
    Corpus.load ~backend:Sim.Backend.Implicit
      [
        "# comment";
        "";
        "id=ok,family=path,n=5,seed=2";
        "id=bad,family=clique,n=0";
        "total garbage";
      ]
  in
  check_string "health text" "degraded" (Server.health (Corpus.list_rows corpus));
  check_bool "still healthy" true (Corpus.healthy corpus);
  check_int "three instances" 3 (List.length (Corpus.instances corpus));
  (match Corpus.find corpus "ok" with
  | Some { status = Corpus.Available _; _ } -> ()
  | _ -> Alcotest.fail "ok instance must be available");
  (match Corpus.find corpus "bad" with
  | Some { status = Corpus.Failed _; spec = None; _ } -> ()
  | _ -> Alcotest.fail "bad spec must be Failed with no spec");
  (* The unparseable line still gets a stable positional id. *)
  (match Corpus.find corpus "line5" with
  | Some { status = Corpus.Failed _; _ } -> ()
  | _ -> Alcotest.fail "garbage line must salvage a positional id");
  let rows = Corpus.list_rows corpus in
  check_int "list rows" 3 (List.length rows);
  match rows with
  | (id0, st0, _) :: _ ->
    check_string "manifest order" "ok" id0;
    check_string "status word" "available" st0
  | [] -> Alcotest.fail "rows empty"

let all_failed_unhealthy () =
  let corpus = Corpus.load ~backend:Sim.Backend.Dense [ "id=b,family=star,n=0" ] in
  check_string "health text" "unhealthy" (Server.health (Corpus.list_rows corpus));
  check_bool "not healthy" false (Corpus.healthy corpus)

(* Dense and implicit backends must serve label-identical instances:
   every arrival row byte-compares.  The soak's single oracle and the
   scripted-session byte-diff both stand on this. *)
let backend_row_identity () =
  let line = "id=g,family=gnp:4,n=24,a=12,r=2,seed=9" in
  let row backend src =
    match Corpus.available (Corpus.load ~backend [ line ]) with
    | [ (_, net) ] -> Array.copy (Temporal.Foremost.arrivals_borrowed net src)
    | _ -> Alcotest.fail "instance did not load"
  in
  for src = 0 to 23 do
    Alcotest.(check (array int))
      (Printf.sprintf "row %d identical across backends" src)
      (row Sim.Backend.Dense src)
      (row Sim.Backend.Implicit src)
  done

(* The backend decides only how labels are stored: on both, the
   clique, star and grid hold their arithmetic shape, and families
   without one (path) a CSR. *)
let implicit_specs_build_shapes () =
  let graph backend line =
    match Corpus.available (Corpus.load ~backend [ line ]) with
    | [ (_, net) ] -> Temporal.Tgraph.graph net
    | _ -> Alcotest.failf "%s did not load" line
  in
  List.iter
    (fun (family, shaped) ->
      let line = Printf.sprintf "id=g,family=%s,n=10,seed=3" family in
      List.iter
        (fun backend ->
          check_bool
            (Printf.sprintf "%s: %s shape" family (Sim.Backend.to_string backend))
            shaped
            (Sgraph.Graph.is_implicit (graph backend line)))
        Sim.Backend.all;
      let implicit = graph Sim.Backend.Implicit line in
      let dense = graph Sim.Backend.Dense line in
      check_int (family ^ ": n") (Sgraph.Graph.n dense) (Sgraph.Graph.n implicit);
      check_int (family ^ ": m") (Sgraph.Graph.m dense) (Sgraph.Graph.m implicit))
    [ ("clique", true); ("uclique", true); ("star", true); ("grid", true);
      ("path", false) ];
  (* A size the generator rejects fails the same way on both. *)
  let failure backend =
    match Corpus.find (Corpus.load ~backend [ "id=s,family=star,n=1" ]) "s" with
    | Some { status = Corpus.Failed m; _ } -> m
    | _ -> Alcotest.fail "a one-vertex star must fail"
  in
  check_string "star n=1 fails alike" (failure Sim.Backend.Dense)
    (failure Sim.Backend.Implicit)

(* ------------------------------------------------------------------ *)
(* Engine: admission, deadlines, drain, caches *)

let test_corpus ?(backend = Sim.Backend.Implicit) ?(n = 7) ?(seed = 5) () =
  Corpus.load ~backend
    [ Printf.sprintf "id=t,family=path,n=%d,a=%d,r=1,seed=%d" n n seed ]

let oracle_row corpus src =
  match Corpus.available corpus with
  | (_, net) :: _ ->
    (* The borrowed scratch may be longer than n; only the prefix is
       the row. *)
    Array.sub (Temporal.Foremost.arrivals_borrowed net src) 0
      (Temporal.Tgraph.n net)
  | [] -> Alcotest.fail "no available instance"

let expect_row = function
  | Engine.Row r -> r
  | Engine.Err (c, m) ->
    Alcotest.failf "expected a row, got %s: %s" (Proto.error_code_to_string c) m

let expect_admitted = function
  | Engine.Admitted t -> t
  | Engine.Rejected (c, m) ->
    Alcotest.failf "expected admission, got %s: %s"
      (Proto.error_code_to_string c) m

(* The corpus is implicit, and its seven distinct sources still share
   one word-parallel sweep: rows are batched on either backend. *)
let engine_answers_correct_rows () =
  let corpus = test_corpus () in
  check_bool "implicit corpus" true
    (Corpus.backend corpus = Sim.Backend.Implicit);
  let eng = Engine.create corpus in
  let tickets =
    List.init 7 (fun src ->
        (src, expect_admitted (Engine.submit eng ~instance:"t" ~source:src ())))
  in
  List.iter
    (fun (src, t) ->
      Alcotest.(check (array int))
        (Printf.sprintf "row for source %d" src)
        (oracle_row corpus src)
        (expect_row (Engine.await t)))
    tickets;
  let s = Engine.stats eng in
  check_int "all admitted" 7 s.Engine.queries;
  check_int "seven sources, one sweep" 1 s.Engine.sweeps

let engine_rejects_bad_submissions () =
  let corpus =
    Corpus.load ~backend:Sim.Backend.Implicit
      [ "id=t,family=path,n=4"; "id=broken,family=clique,n=0" ]
  in
  let eng = Engine.create corpus in
  (match Engine.submit eng ~instance:"nope" ~source:0 () with
  | Engine.Rejected (Proto.Unknown_instance, _) -> ()
  | _ -> Alcotest.fail "unknown instance must be rejected");
  (match Engine.submit eng ~instance:"broken" ~source:0 () with
  | Engine.Rejected (Proto.Unavailable, _) -> ()
  | _ -> Alcotest.fail "failed instance must answer Unavailable");
  (match Engine.submit eng ~instance:"t" ~source:4 () with
  | Engine.Rejected (Proto.Bad_arg, _) -> ()
  | _ -> Alcotest.fail "out-of-range source must be Bad_arg");
  match Engine.submit eng ~instance:"t" ~source:(-1) () with
  | Engine.Rejected (Proto.Bad_arg, _) -> ()
  | _ -> Alcotest.fail "negative source must be Bad_arg"

(* The admission bound: with no thread awaiting, the queue fills to
   exactly queue_max and the next submission is shed — no unbounded
   buffering, and queue_peak proves it. *)
let engine_sheds_at_bound () =
  let corpus = test_corpus () in
  let config = { Engine.default_config with Engine.queue_max = 2 } in
  let eng = Engine.create ~config corpus in
  let t0 = expect_admitted (Engine.submit eng ~instance:"t" ~source:0 ()) in
  let t1 = expect_admitted (Engine.submit eng ~instance:"t" ~source:1 ()) in
  (match Engine.submit eng ~instance:"t" ~source:2 () with
  | Engine.Rejected (Proto.Resource_exhausted, _) -> ()
  | _ -> Alcotest.fail "third submit must be shed");
  ignore (expect_row (Engine.await t0));
  ignore (expect_row (Engine.await t1));
  let s = Engine.stats eng in
  check_int "shed counted" 1 s.Engine.shed;
  check_int "queue peak at bound" 2 s.Engine.queue_peak;
  check_bool "peak never exceeds bound" true (s.Engine.queue_peak <= 2)

let engine_deadline_expires () =
  let corpus = test_corpus () in
  let eng = Engine.create corpus in
  let t =
    expect_admitted
      (Engine.submit eng ~instance:"t" ~source:0 ~deadline_s:0.005 ())
  in
  Unix.sleepf 0.03;
  (match Engine.await t with
  | Engine.Err (Proto.Deadline_exceeded, _) -> ()
  | Engine.Row _ -> Alcotest.fail "expired job must answer Deadline_exceeded"
  | Engine.Err (c, m) ->
    Alcotest.failf "wrong error %s: %s" (Proto.error_code_to_string c) m);
  check_int "expired counted" 1 (Engine.stats eng).Engine.expired

let engine_drain_flushes_then_refuses () =
  let corpus = test_corpus () in
  let eng = Engine.create corpus in
  let t = expect_admitted (Engine.submit eng ~instance:"t" ~source:3 ()) in
  Engine.drain eng;
  (* The queued job was answered, not dropped. *)
  Alcotest.(check (array int))
    "drained job answered" (oracle_row corpus 3)
    (expect_row (Engine.await t));
  (match Engine.submit eng ~instance:"t" ~source:0 () with
  | Engine.Rejected (Proto.Shutting_down, _) -> ()
  | _ -> Alcotest.fail "post-drain submit must be Shutting_down");
  Engine.drain eng (* idempotent *)

let engine_cache_and_dedupe () =
  let corpus = test_corpus () in
  let eng = Engine.create corpus in
  (* Two jobs for the same source in one cycle: one sweep, two answers. *)
  let ta = expect_admitted (Engine.submit eng ~instance:"t" ~source:2 ()) in
  let tb = expect_admitted (Engine.submit eng ~instance:"t" ~source:2 ()) in
  let ra = expect_row (Engine.await ta) and rb = expect_row (Engine.await tb) in
  Alcotest.(check (array int)) "deduped rows agree" ra rb;
  check_int "one sweep for duplicate sources" 1 (Engine.stats eng).Engine.sweeps;
  (* A later cycle for the same source hits the row cache: no new sweep. *)
  let tc = expect_admitted (Engine.submit eng ~instance:"t" ~source:2 ()) in
  ignore (expect_row (Engine.await tc));
  let s = Engine.stats eng in
  check_int "cache hit counted" 1 s.Engine.cache_hits;
  check_int "still one sweep" 1 s.Engine.sweeps

let engine_store_round_trip () =
  with_tmp_dir (fun dir ->
      let corpus = test_corpus () in
      let config store =
        { Engine.default_config with Engine.store = Some store; cache_max = 0 }
      in
      (* First engine computes and persists the row... *)
      let eng1 = Engine.create ~config:(config (Objects.open_ ~dir)) corpus in
      let t1 = expect_admitted (Engine.submit eng1 ~instance:"t" ~source:4 ()) in
      let row1 = expect_row (Engine.await t1) in
      check_int "computed, not store-served" 0
        (Engine.stats eng1).Engine.store_hits;
      (* ...a fresh engine over the same store serves it without a sweep. *)
      let eng2 = Engine.create ~config:(config (Objects.open_ ~dir)) corpus in
      let t2 = expect_admitted (Engine.submit eng2 ~instance:"t" ~source:4 ()) in
      let row2 = expect_row (Engine.await t2) in
      Alcotest.(check (array int)) "persisted row identical" row1 row2;
      let s = Engine.stats eng2 in
      check_int "served from store" 1 s.Engine.store_hits;
      check_int "no sweep on the hit" 0 s.Engine.sweeps)

(* A corrupted stored row must be recomputed, not trusted: the codec
   check quarantines it and the engine falls back to the kernel. *)
let engine_store_corruption_recovers () =
  with_tmp_dir (fun dir ->
      let corpus = test_corpus () in
      let config store =
        { Engine.default_config with Engine.store = Some store; cache_max = 0 }
      in
      let store1 = Objects.open_ ~dir in
      let eng1 = Engine.create ~config:(config store1) corpus in
      let t1 = expect_admitted (Engine.submit eng1 ~instance:"t" ~source:1 ()) in
      ignore (expect_row (Engine.await t1));
      (match Objects.entries store1 with
      | entry :: _ ->
        flip_byte (Objects.object_path store1 ~digest:entry.Objects.digest) 5
      | [] -> Alcotest.fail "row was not persisted");
      let eng2 = Engine.create ~config:(config (Objects.open_ ~dir)) corpus in
      let t2 = expect_admitted (Engine.submit eng2 ~instance:"t" ~source:1 ()) in
      Alcotest.(check (array int))
        "recomputed row correct" (oracle_row corpus 1)
        (expect_row (Engine.await t2));
      let s = Engine.stats eng2 in
      check_int "corrupt row is a miss" 0 s.Engine.store_hits;
      check_int "recomputed by sweep" 1 s.Engine.sweeps)

(* The row cache is LRU with touch-on-hit: a re-queried row survives an
   eviction pass that displaces a colder one, and every displacement is
   counted.  (A FIFO cache would evict the re-queried row instead —
   this test distinguishes the policies.) *)
let engine_lru_touch_on_hit () =
  let corpus = test_corpus () in
  let config = { Engine.default_config with Engine.cache_max = 2 } in
  let eng = Engine.create ~config corpus in
  let run_one src =
    let t = expect_admitted (Engine.submit eng ~instance:"t" ~source:src ()) in
    expect_row (Engine.await t)
  in
  ignore (run_one 0);                     (* cache {0} *)
  ignore (run_one 1);                     (* cache {0, 1} *)
  Alcotest.(check (array int)) "hit serves the correct row"
    (oracle_row corpus 0) (run_one 0);    (* hit: 0 becomes most-recent *)
  check_int "hit counted" 1 (Engine.stats eng).Engine.cache_hits;
  check_int "no eviction while under capacity" 0
    (Engine.stats eng).Engine.evictions;
  ignore (run_one 2);                     (* full: evicts 1, not the hot 0 *)
  check_int "one eviction at capacity" 1 (Engine.stats eng).Engine.evictions;
  ignore (run_one 0);                     (* still cached — the hit saved it *)
  let s = Engine.stats eng in
  check_int "hot row survived the eviction" 2 s.Engine.cache_hits;
  check_int "sweeps only for the three misses" 3 s.Engine.sweeps;
  ignore (run_one 1);                     (* was evicted: must re-sweep *)
  let s = Engine.stats eng in
  check_int "evicted row re-swept" 4 s.Engine.sweeps;
  check_int "second eviction" 2 s.Engine.evictions

(* Eight threads submit and await at once over three sources, so
   cycles share rows and later queries hit the cache.  Whichever
   thread runs a cycle, every ticket is answered once, with its row. *)
let engine_concurrent_awaiters () =
  let corpus = test_corpus () in
  let sources = [| 0; 3; 5 |] in
  let oracle = Array.map (oracle_row corpus) sources in
  let eng = Engine.create corpus in
  let threads = 8 and per_thread = 50 in
  let latency = Obs.Metrics.histogram "serve.latency_ms" in
  let resolved0 = Obs.Metrics.observations latency in
  let answered = Atomic.make 0 and bad = Atomic.make 0 in
  let worker k () =
    for i = 0 to per_thread - 1 do
      let s = (k + i) mod Array.length sources in
      match Engine.submit eng ~instance:"t" ~source:sources.(s) () with
      | Engine.Admitted t -> (
        match Engine.await t with
        | Engine.Row r when r = oracle.(s) -> Atomic.incr answered
        | _ -> Atomic.incr bad)
      | Engine.Rejected _ -> Atomic.incr bad
    done
  in
  List.init threads (fun k -> Thread.create (worker k) ())
  |> List.iter Thread.join;
  check_int "no wrong or refused answer" 0 (Atomic.get bad);
  check_int "every ticket answered" (threads * per_thread) (Atomic.get answered);
  check_int "each ticket resolved once" (threads * per_thread)
    (Obs.Metrics.observations latency - resolved0);
  let s = Engine.stats eng in
  check_int "all admitted" (threads * per_thread) s.Engine.queries;
  check_bool "at most one sweep per distinct source" true
    (s.Engine.sweeps <= Array.length sources)

(* A drain racing live awaiters: admission stops, every admitted ticket
   still gets its row, and each thread then sees Shutting_down. *)
let engine_drain_races_awaiters () =
  let corpus = test_corpus () in
  let oracle = Array.init 7 (oracle_row corpus) in
  let eng = Engine.create corpus in
  let answered = Atomic.make 0 and bad = Atomic.make 0 in
  let worker k () =
    let rec loop i =
      let src = (k + i) mod 7 in
      match Engine.submit eng ~instance:"t" ~source:src () with
      | Engine.Admitted t ->
        (match Engine.await t with
        | Engine.Row r when r = oracle.(src) -> Atomic.incr answered
        | _ -> Atomic.incr bad);
        loop (i + 1)
      | Engine.Rejected (Proto.Shutting_down, _) -> true
      | Engine.Rejected _ -> false
    in
    loop 0
  in
  let ended = Array.make 8 false in
  let threads =
    List.init 8 (fun k -> Thread.create (fun () -> ended.(k) <- worker k ()) ())
  in
  while Atomic.get answered < 100 && Atomic.get bad = 0 do
    Thread.delay 0.001
  done;
  Engine.drain eng;
  List.iter Thread.join threads;
  check_int "no wrong answer" 0 (Atomic.get bad);
  check_bool "every thread ended on Shutting_down" true
    (Array.for_all Fun.id ended);
  check_int "queries = rows answered" (Atomic.get answered)
    (Engine.stats eng).Engine.queries

(* ------------------------------------------------------------------ *)
(* Sharding: the consistent-hash partition and the router's pure merge
   helpers *)

let shard_manifest =
  [
    "# comment";
    "id=a,family=path,n=4";
    "id=b,family=clique,n=4";
    "not a spec";
    "id=c,family=star,n=5";
    "id=d,family=gnp:3,n=8";
    "id=e,family=clique,n=0";
  ]

let corpus_shard_partition () =
  let ids = Corpus.manifest_ids shard_manifest in
  Alcotest.(check (list string))
    "manifest ids in order, salvaged ids included"
    [ "a"; "b"; "line4"; "c"; "d"; "e" ]
    ids;
  List.iter
    (fun id ->
      check_int (Printf.sprintf "%s: one shard means shard 0" id) 0
        (Corpus.shard_of ~shards:1 id))
    ids;
  let shards = 3 in
  let parts =
    List.init shards (fun k ->
        Corpus.load ~shard:(k, shards) ~backend:Sim.Backend.Implicit
          shard_manifest
        |> Corpus.instances
        |> List.map (fun i -> i.Corpus.spec_id))
  in
  (* Each partition holds exactly the ids the hash assigns to it... *)
  List.iteri
    (fun k part ->
      List.iter
        (fun id ->
          check_int
            (Printf.sprintf "%s landed on its hash shard" id)
            k
            (Corpus.shard_of ~shards id))
        part)
    parts;
  (* ...and the partitions are disjoint and exhaustive: their union is
     the whole manifest, failed and salvaged lines included. *)
  Alcotest.(check (list string))
    "partitions cover the manifest exactly once"
    (List.sort compare ids)
    (List.sort compare (List.concat parts))

let shard_of_range () =
  let ids = [ ""; "a"; "clq1k"; "line17"; String.make 64 'x' ] in
  List.iter
    (fun id ->
      List.iter
        (fun shards ->
          let k = Corpus.shard_of ~shards id in
          check_bool
            (Printf.sprintf "shard_of %S mod %d in range" id shards)
            true
            (k >= 0 && k < shards);
          check_int "deterministic" k (Corpus.shard_of ~shards id))
        [ 1; 2; 3; 4; 7; 16 ])
    ids

let router_stats_text_roundtrip () =
  let v =
    {
      Serve.Ledger.queries = 12; shed = 3; expired = 2; cache_hits = 5;
      store_hits = 1; sweeps = 7; evictions = 4; queue_peak = 9;
      p50_ms = 0.; p99_ms = 0.; qps = 0.; wall_s = 0.; shards = None;
    }
  in
  (match Serve.Ledger.parse_stats_text (Serve.Ledger.render_stats_text v) with
  | Some v' ->
    check_bool "tallies survive the round-trip" true (v = v')
  | None -> Alcotest.fail "rendered stats must parse");
  check_bool "garbage does not parse" true
    (Serve.Ledger.parse_stats_text "hello world" = None);
  check_bool "non-numeric values ignored" true
    (Serve.Ledger.parse_stats_text "queries=many" = None)

let router_merge_list_rows () =
  let manifest_ids = [ "a"; "b"; "c"; "d" ] in
  let shard0 = [ ("b", "available", "n=4"); ("d", "failed", "boom") ] in
  let shard1 = [ ("a", "available", "n=8") ] in
  let merged =
    Serve.Router.merge_list_rows ~manifest_ids [ shard0; shard1 ]
  in
  Alcotest.(check (list (triple string string string)))
    "manifest order restored; unreported id kept as a failed row"
    [
      ("a", "available", "n=8");
      ("b", "available", "n=4");
      ("c", "failed", "shard unavailable at snapshot");
      ("d", "failed", "boom");
    ]
    merged;
  (* A manifest that repeats an id consumes that id's rows in shard
     order, one per occurrence. *)
  let merged_dup =
    Serve.Router.merge_list_rows ~manifest_ids:[ "x"; "x" ]
      [ [ ("x", "available", "first"); ("x", "failed", "second") ] ]
  in
  Alcotest.(check (list (triple string string string)))
    "duplicate ids merge FIFO"
    [ ("x", "available", "first"); ("x", "failed", "second") ]
    merged_dup

let router_snapshot_health () =
  check_string "all available is ok" "ok"
    (Server.health [ ("a", "available", "") ]);
  check_string "any failed is degraded" "degraded"
    (Server.health
       [ ("a", "available", ""); ("b", "failed", "x") ]);
  check_string "none available is unhealthy" "unhealthy"
    (Server.health [ ("b", "failed", "x") ]);
  check_string "empty snapshot is unhealthy" "unhealthy"
    (Server.health [])

(* ------------------------------------------------------------------ *)
(* Live server over a Unix socket *)

let with_server ?(manifest = [ "id=t,family=path,n=7,seed=5"; "id=broken,family=clique,n=0" ])
    ?(backend = Sim.Backend.Implicit) f =
  with_tmp_dir (fun dir ->
      Store.Fsio.ensure_dir dir;
      let corpus = Corpus.load ~backend manifest in
      let address = Server.Unix_path (Filename.concat dir "srv.sock") in
      let ledger = Filename.concat dir "ledger.json" in
      let config =
        {
          Server.default_config with
          Server.address;
          ledger_path = Some ledger;
          read_timeout_s = 5.;
        }
      in
      let stop =
        Server.run_background ~config
          ~engine:{ Engine.default_config with Engine.queue_max = 16 }
          corpus
      in
      let finish () = stop () in
      Fun.protect ~finally:finish (fun () -> f corpus address ledger))

let expect_ok = function
  | Stdlib.Ok r -> r
  | Stdlib.Error m -> Alcotest.failf "call failed: %s" m

let server_answers_queries () =
  with_server (fun corpus address _ledger ->
      let c = expect_ok (Client.connect ~timeout_s:5. address) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match expect_ok (Client.call c Proto.Ping) with
          | Proto.Ok_empty -> ()
          | _ -> Alcotest.fail "ping must answer Ok_empty");
          let row = oracle_row corpus 0 in
          (match expect_ok (Client.call c (Proto.Arrivals (q "t" 0))) with
          | Proto.Ok_vector v -> Alcotest.(check (array int)) "arrivals" row v
          | _ -> Alcotest.fail "arrivals must answer a vector");
          (match expect_ok (Client.call c (Proto.Foremost (q "t" 0 ~target:6))) with
          | Proto.Ok_value v ->
            check_int_option "foremost"
              (if row.(6) = max_int then None else Some row.(6))
              v
          | _ -> Alcotest.fail "foremost must answer a value");
          (match expect_ok (Client.call c (Proto.Reach (q "t" 0))) with
          | Proto.Ok_count k ->
            check_int "reach" (Array.length (Array.of_list (List.filter (fun x -> x < max_int) (Array.to_list row)))) k
          | _ -> Alcotest.fail "reach must answer a count");
          (match expect_ok (Client.call c (Proto.Foremost (q "nope" 0))) with
          | Proto.Error (Proto.Unknown_instance, _) -> ()
          | _ -> Alcotest.fail "unknown instance must be a typed error");
          (match expect_ok (Client.call c (Proto.Foremost (q "broken" 0))) with
          | Proto.Error (Proto.Unavailable, _) -> ()
          | _ -> Alcotest.fail "degraded instance must answer Unavailable");
          (match expect_ok (Client.call c Proto.Health) with
          | Proto.Ok_text s -> check_bool "health mentions degraded" true (contains s "degraded")
          | _ -> Alcotest.fail "health must answer text");
          match expect_ok (Client.call c Proto.List) with
          | Proto.Ok_list rows -> check_int "list rows" 2 (List.length rows)
          | _ -> Alcotest.fail "list must answer rows"))

let server_drain_publishes_ledger () =
  with_server (fun _corpus address ledger ->
      let c = expect_ok (Client.connect ~timeout_s:5. address) in
      ignore (expect_ok (Client.call c (Proto.Arrivals (q "t" 1))));
      Client.close c;
      check_bool "no ledger before drain" false (Sys.file_exists ledger));
  (* with_server's finally ran the drain; the ledger must now exist. *)
  ()

let server_ledger_contents () =
  with_tmp_dir (fun dir ->
      Store.Fsio.ensure_dir dir;
      let corpus = Corpus.load ~backend:Sim.Backend.Implicit [ "id=t,family=path,n=7,seed=5" ] in
      let address = Server.Unix_path (Filename.concat dir "srv.sock") in
      let ledger = Filename.concat dir "ledger.json" in
      let config =
        { Server.default_config with Server.address; ledger_path = Some ledger }
      in
      let stop = Server.run_background ~config corpus in
      let c = expect_ok (Client.connect ~timeout_s:5. address) in
      ignore (expect_ok (Client.call c (Proto.Arrivals (q "t" 2))));
      Client.close c;
      stop ();
      check_bool "ledger published on drain" true (Sys.file_exists ledger);
      let ic = open_in ledger in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check_bool "schema tag" true (contains text "ephemeral-serve-ledger/v1");
      check_bool "query counted" true (contains text "\"queries\": 1");
      check_bool "socket unlinked" false
        (Sys.file_exists (Filename.concat dir "srv.sock")))

let ping_answers c =
  match Client.call ~timeout_s:5. c Proto.Ping with
  | Stdlib.Ok Proto.Ok_empty -> true
  | _ -> false

(* The connection table is bounded: past [max_conns] an accept gets one
   typed frame and a close, and a freed slot serves again. *)
let server_connection_limit () =
  with_server (fun _ address _ ->
      let connect () = expect_ok (Client.connect ~timeout_s:5. address) in
      let held = List.init Server.max_conns (fun _ -> connect ()) in
      Fun.protect
        ~finally:(fun () -> List.iter Client.close held)
        (fun () ->
          check_bool "every held connection served" true
            (List.for_all ping_answers held);
          let over = connect () in
          let fd = Client.fd over in
          (match Proto.read_frame ~deadline_s:5. fd with
          | Proto.Frame p ->
            check_bool "one Resource_exhausted frame" true
              (Proto.decode_response p
              = Stdlib.Ok
                  (Proto.Error
                     (Proto.Resource_exhausted, "connection limit reached")))
          | _ -> Alcotest.fail "over-limit accept must be answered");
          check_bool "then EOF" true
            (Proto.read_frame ~deadline_s:5. fd = Proto.Eof);
          Client.close over;
          (* The server frees the slot once it reads this close. *)
          Client.close (List.hd held);
          let rec served k =
            let c = connect () in
            let ok = ping_answers c in
            Client.close c;
            ok || (k > 0 && (Thread.delay 0.01; served (k - 1)))
          in
          check_bool "a freed slot serves a new connection" true (served 500)))

(* The same front end on TCP: round trips, then a drain that returns
   and publishes the ledger. *)
let server_tcp () =
  with_tmp_dir (fun dir ->
      Store.Fsio.ensure_dir dir;
      let port =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
            match Unix.getsockname fd with
            | Unix.ADDR_INET (_, p) -> p
            | Unix.ADDR_UNIX _ -> Alcotest.fail "not an inet socket")
      in
      let address = Server.Tcp ("127.0.0.1", port) in
      let ledger = Filename.concat dir "ledger.json" in
      let corpus =
        Corpus.load ~backend:Sim.Backend.Dense [ "id=t,family=path,n=7,seed=5" ]
      in
      let stop =
        Server.run_background
          ~config:{ Server.default_config with Server.address; ledger_path = Some ledger }
          corpus
      in
      let c = expect_ok (Client.connect ~timeout_s:5. address) in
      check_bool "ping" true (ping_answers c);
      (match expect_ok (Client.call c Proto.List) with
      | Proto.Ok_list rows -> check_bool "list" true (rows = Corpus.list_rows corpus)
      | _ -> Alcotest.fail "list must answer rows");
      Client.close c;
      stop ();
      check_bool "ledger published on drain" true (Sys.file_exists ledger))

(* The determinism claim at the protocol level: the same scripted
   session renders byte-identically on dense and implicit servers. *)
let server_backend_byte_identical () =
  let script c =
    [
      Client.call c (Proto.Arrivals (q "t" 0));
      Client.call c (Proto.Foremost (q "t" 1 ~target:5));
      Client.call c (Proto.Ecc (q "t" 2));
      Client.call c (Proto.Reach (q "t" 3));
    ]
    |> List.map (fun r -> Proto.render_response (expect_ok r))
    |> String.concat "\n"
  in
  let session backend =
    let out = ref "" in
    with_server ~manifest:[ "id=t,family=path,n=9,a=9,r=2,seed=11" ] ~backend
      (fun _ address _ ->
        let c = expect_ok (Client.connect ~timeout_s:5. address) in
        Fun.protect ~finally:(fun () -> Client.close c)
          (fun () -> out := script c));
    !out
  in
  check_string "dense and implicit sessions byte-identical"
    (session Sim.Backend.Dense)
    (session Sim.Backend.Implicit)

(* The CI scripted session (STATS aside: its counters move) with one
   malformed frame among it, pipelined: every frame in a single
   write.  The replies come back in order, byte for byte the ones the
   same frames get one at a time. *)
let server_pipelined_session () =
  let frames =
    List.map Proto.encode_request
      [
        Proto.Ping; Proto.Health; Proto.Ready; Proto.List;
        Proto.Foremost (q "clq" 0 ~target:5);
      ]
    @ [ "\x10\x00" ]
    @ List.map Proto.encode_request
        [
          Proto.Foremost (q "clq" 3 ~target:0 ~deadline_ms:500);
          Proto.Arrivals (q "clq" 2); Proto.Reach (q "clq" 1); Proto.Ecc (q "clq" 4);
          Proto.Foremost (q "nope" 0 ~target:1);
        ]
  in
  with_server ~manifest:[ "id=clq,family=clique,n=64,seed=7" ]
    ~backend:Sim.Backend.Dense (fun _ address _ ->
      let on_connection f =
        let c = expect_ok (Client.connect ~timeout_s:5. address) in
        Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f (Client.fd c))
      in
      let reply fd =
        match Proto.read_frame ~deadline_s:5. fd with
        | Proto.Frame p -> p
        | _ -> Alcotest.fail "every request gets a reply frame"
      in
      let one_at_a_time =
        on_connection (fun fd ->
            List.map
              (fun p ->
                Proto.write_frame fd p;
                reply fd)
              frames)
      in
      let pipelined =
        on_connection (fun fd ->
            write_all fd (String.concat "" (List.map frame_bytes frames));
            List.map (fun _ -> reply fd) frames)
      in
      check_bool "the malformed frame answers parse-error" true
        (match Proto.decode_response (List.nth one_at_a_time 5) with
        | Stdlib.Ok (Proto.Error (Proto.Parse_error, _)) -> true
        | _ -> false);
      Alcotest.(check (list string))
        "pipelined replies equal one-at-a-time replies" one_at_a_time pipelined)

(* ------------------------------------------------------------------ *)
(* Fault.Retry: deterministic jitter and the wall-time budget *)

let backoff_legacy_delays () =
  check_float "k=0" 0.001 (Fault.Retry.backoff_delay 0);
  check_float "k=1" 0.002 (Fault.Retry.backoff_delay 1);
  check_float "k=2" 0.004 (Fault.Retry.backoff_delay 2);
  check_float "capped" 0.05 (Fault.Retry.backoff_delay 12)

let backoff_jitter_deterministic () =
  for k = 0 to 7 do
    let d1 = Fault.Retry.backoff_delay ~jitter:0.5 ~jitter_seed:7L k in
    let d2 = Fault.Retry.backoff_delay ~jitter:0.5 ~jitter_seed:7L k in
    check_float (Printf.sprintf "k=%d reproducible" k) d1 d2;
    let base = Fault.Retry.backoff_delay k in
    check_bool
      (Printf.sprintf "k=%d within jitter band" k)
      true
      (d1 >= base *. 0.75 -. 1e-12 && d1 <= base *. 1.25 +. 1e-12)
  done;
  let differs =
    List.exists
      (fun k ->
        Fault.Retry.backoff_delay ~jitter:0.5 ~jitter_seed:1L k
        <> Fault.Retry.backoff_delay ~jitter:0.5 ~jitter_seed:2L k)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  check_bool "seeds decorrelate" true differs;
  Alcotest.check_raises "jitter out of range"
    (Invalid_argument "Retry.backoff_delay: jitter must be in [0, 1]")
    (fun () -> ignore (Fault.Retry.backoff_delay ~jitter:1.5 0))

let retry_budget_zero_never_retries () =
  let count = ref 0 in
  (try
     Fault.Retry.with_backoff ~attempts:5 ~budget_s:0.
       ~retryable:(fun _ -> true)
       ~on_retry:(fun _ _ -> ())
       (fun _ ->
         incr count;
         failwith "transient")
   with Failure _ -> ());
  check_int "exactly one attempt under a zero budget" 1 !count

let retry_budget_allows_recovery () =
  let count = ref 0 in
  let v =
    Fault.Retry.with_backoff ~attempts:5 ~budget_s:5.
      ~retryable:(fun _ -> true)
      ~on_retry:(fun _ _ -> ())
      (fun _ ->
        incr count;
        if !count < 3 then failwith "transient" else !count)
  in
  check_int "recovered on third attempt" 3 v;
  Alcotest.check_raises "negative budget refused"
    (Invalid_argument "Retry.with_backoff: negative budget")
    (fun () ->
      Fault.Retry.with_backoff ~budget_s:(-1.)
        ~retryable:(fun _ -> true)
        ~on_retry:(fun _ _ -> ())
        (fun _ -> ()))

(* ------------------------------------------------------------------ *)
(* Fault.Shutdown: the register-during-drain race *)

let shutdown_register_after_drain () =
  Fault.Shutdown.reset ();
  Fun.protect ~finally:Fault.Shutdown.reset (fun () ->
      let early = ref 0 and late = ref 0 in
      Fault.Shutdown.on_shutdown (fun () -> incr early);
      Fault.Shutdown.run_hooks ();
      check_int "early hook ran" 1 !early;
      (* The race: a thread registers while/after the drain runs the
         hooks.  The late hook must still run — immediately, exactly
         once — not be silently dropped. *)
      Fault.Shutdown.on_shutdown (fun () -> incr late);
      check_int "late hook ran immediately" 1 !late;
      Fault.Shutdown.run_hooks ();
      check_int "early hook not re-run" 1 !early;
      check_int "late hook not re-run" 1 !late)

let shutdown_hooks_lifo_once () =
  Fault.Shutdown.reset ();
  Fun.protect ~finally:Fault.Shutdown.reset (fun () ->
      let order = ref [] in
      Fault.Shutdown.on_shutdown (fun () -> order := 1 :: !order);
      Fault.Shutdown.on_shutdown (fun () -> order := 2 :: !order);
      Fault.Shutdown.run_hooks ();
      Fault.Shutdown.run_hooks ();
      Alcotest.(check (list int)) "LIFO, exactly once" [ 1; 2 ] !order)

(* ------------------------------------------------------------------ *)
(* Store.Objects: concurrent quarantine-then-repopulate *)

let store_concurrent_quarantine () =
  with_tmp_dir (fun dir ->
      let s = Objects.open_ ~dir in
      let key = "serve.row/test" and payload = "quarantine-me-please" in
      let entry = Objects.put s ~key ~meta:[] payload in
      flip_byte (Objects.object_path s ~digest:entry.Objects.digest) 3;
      (* Two domains race the corrupted read: both must see a miss,
         and the rename race must leave exactly one quarantined file. *)
      let reader () = Objects.get s ~key in
      let d1 = Domain.spawn reader and d2 = Domain.spawn reader in
      let r1 = Domain.join d1 and r2 = Domain.join d2 in
      check_bool "first racer misses" true (r1 = None);
      check_bool "second racer misses" true (r2 = None);
      check_int "no double-quarantine" 1 (count_files (Objects.quarantine_dir s));
      (* Repopulate and race again: both readers recover the bytes. *)
      ignore (Objects.put s ~key ~meta:[] payload);
      let d1 = Domain.spawn reader and d2 = Domain.spawn reader in
      let r1 = Domain.join d1 and r2 = Domain.join d2 in
      (match (r1, r2) with
      | Some (b1, _), Some (b2, _) ->
        check_string "first recovers" payload b1;
        check_string "second recovers" payload b2
      | _ -> Alcotest.fail "repopulated object must serve both readers");
      check_int "still one quarantined file" 1
        (count_files (Objects.quarantine_dir s)))

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "serve.proto",
      [
        case "request round-trip" request_roundtrip;
        case "response round-trip" response_roundtrip;
        case "error codes round-trip" error_code_roundtrip;
        case "garbage rejected" decode_rejects_garbage;
        case "render deterministic" render_deterministic;
        case "frame round-trip" frame_roundtrip;
        case "frame eof" frame_eof;
        case "frame reset by peer is eof" frame_reset_is_eof;
        case "frame timeout (slow loris)" frame_timeout;
        case "frame oversized" frame_oversized;
        qcase ~count:60 ~print:print_split_frames
          "reader returns split frames whole, then eof" gen_split_frames
          prop_reader_sequences;
        case "reader: stalled payload times out" reader_stalled_payload_times_out;
        case "reader: arriving bytes do not extend the deadline"
          reader_deadline_bounds_a_trickle;
        case "reader: frames across the buffer's end"
          reader_frames_across_the_buffer_end;
        case "query truncation vectors" query_truncation_vectors;
        qcase ~count:200 "request encode∘decode = id" gen_request
          prop_request_roundtrip;
        qcase ~count:200 "response encode∘decode = id" gen_response
          prop_response_roundtrip;
        qcase ~count:200 "no request prefix parses" gen_request
          prop_request_prefix_rejected;
        qcase ~count:200 "no response prefix parses" gen_response
          prop_response_prefix_rejected;
        qcase ~count:200 "peek agrees with the decoder" gen_request
          prop_peek_agrees;
      ] );
    ( "serve.corpus",
      [
        case "spec defaults" spec_defaults;
        case "spec errors" spec_errors;
        case "degraded load" degraded_load;
        case "all failed is unhealthy" all_failed_unhealthy;
        case "backend row identity" backend_row_identity;
        case "implicit specs build their shape" implicit_specs_build_shapes;
      ] );
    ( "serve.engine",
      [
        case "answers correct rows" engine_answers_correct_rows;
        case "rejects bad submissions" engine_rejects_bad_submissions;
        case "sheds at the admission bound" engine_sheds_at_bound;
        case "deadline expiry" engine_deadline_expires;
        case "drain flushes then refuses" engine_drain_flushes_then_refuses;
        case "cache and dedupe" engine_cache_and_dedupe;
        case "store round-trip" engine_store_round_trip;
        case "store corruption recovers" engine_store_corruption_recovers;
        case "LRU touch-on-hit" engine_lru_touch_on_hit;
        case "concurrent awaiters" engine_concurrent_awaiters;
        case "drain racing live awaiters" engine_drain_races_awaiters;
      ] );
    ( "serve.shard",
      [
        case "consistent-hash partition" corpus_shard_partition;
        case "shard_of range and determinism" shard_of_range;
        case "stats text round-trip" router_stats_text_roundtrip;
        case "LIST merge" router_merge_list_rows;
        case "snapshot health" router_snapshot_health;
      ] );
    ( "serve.server",
      [
        case "answers queries" server_answers_queries;
        case "drain publishes ledger" server_drain_publishes_ledger;
        case "ledger contents" server_ledger_contents;
        case "backend byte-identical sessions" server_backend_byte_identical;
        case "pipelined session" server_pipelined_session;
        case "connection limit" server_connection_limit;
        case "tcp listener" server_tcp;
      ] );
    ( "serve.retry",
      [
        case "legacy delays exact" backoff_legacy_delays;
        case "jitter deterministic and bounded" backoff_jitter_deterministic;
        case "zero budget never retries" retry_budget_zero_never_retries;
        case "budget allows recovery" retry_budget_allows_recovery;
      ] );
    ( "serve.shutdown",
      [
        case "register after drain runs immediately" shutdown_register_after_drain;
        case "hooks LIFO exactly once" shutdown_hooks_lifo_once;
      ] );
    ( "serve.store",
      [ case "concurrent quarantine then repopulate" store_concurrent_quarantine ] );
  ]
