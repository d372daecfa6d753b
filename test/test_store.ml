(* lib/store: codec framing, content-addressed objects, gc, checkpoints
   and trial-level resume.

   Equality discipline: stored values are compared through re-encoding
   (encode (decode (encode x)) = encode x) — floats travel as IEEE-754
   bit patterns, so this is exact even for NaN payloads, infinities and
   signed zeros, with no float-equality pitfalls. *)

open Helpers
module Codec = Store.Codec
module Objects = Store.Objects
module Checkpoint = Store.Checkpoint

let check_string = Alcotest.(check string)

(* Fresh scratch directory per test; best-effort removal. *)
let with_tmp_dir f =
  let dir = Filename.temp_file "ephemeral-test" ".store" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> Store.Fsio.remove_tree dir) (fun () -> f dir)

let table ?(title = "t") rows =
  let t = Stats.Table.create ~title ~columns:[ "a"; "b" ] in
  List.iter (Stats.Table.add_row t) rows;
  t

let outcome_of tables : Codec.outcome = { tables; notes = []; plots = [] }

let some_outcome () : Codec.outcome =
  {
    tables =
      [
        table ~title:"special floats"
          [
            [ Stats.Table.Float (Float.nan, 2); Stats.Table.Float (Float.infinity, 0) ];
            [ Stats.Table.Float (Float.neg_infinity, 4); Stats.Table.Float (-0., 1) ];
            [ Stats.Table.Int (-3); Stats.Table.Pct 0.375 ];
          ];
        table ~title:"empty" [];
        table ~title:"strings \"quoted\"" [ [ Stats.Table.Str "x,\ny"; Stats.Table.Str "" ] ];
      ];
    notes = [ "a note"; "with \"escapes\"\tand\ncontrol chars"; "" ];
    plots = [ "plot.svg" ];
  }

(* ------------------------------------------------------------------ *)
(* CRC-32 *)

let crc_cases =
  [
    case "check vector" (fun () ->
        (* The standard CRC-32 check value. *)
        Alcotest.(check int32) "123456789" 0xCBF43926l
          (Store.Crc32.digest "123456789"));
    case "empty is zero" (fun () ->
        Alcotest.(check int32) "empty" 0l (Store.Crc32.digest ""));
    case "digest_sub agrees with digest" (fun () ->
        let s = "abcdefghij" in
        Alcotest.(check int32) "sub"
          (Store.Crc32.digest (String.sub s 2 5))
          (Store.Crc32.digest_sub s ~pos:2 ~len:5));
    case "sensitive to each byte" (fun () ->
        let s = String.make 64 'a' in
        let d = Store.Crc32.digest s in
        for i = 0 to 63 do
          let b = Bytes.of_string s in
          Bytes.set b i 'b';
          check_bool (Printf.sprintf "byte %d" i) false
            (Store.Crc32.digest (Bytes.to_string b) = d)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Codec *)

let gen_cell =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> Stats.Table.Int i) (int_range (-1000) 1000);
        (let* f =
           oneof
             [
               float;
               oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 0. ];
             ]
         in
         let* d = int_range 0 6 in
         return (Stats.Table.Float (f, d)));
        map (fun s -> Stats.Table.Str s) (string_size ~gen:printable (int_range 0 12));
        map (fun p -> Stats.Table.Pct p) (float_bound_inclusive 1.);
      ])

let gen_table =
  QCheck2.Gen.(
    let* width = int_range 1 5 in
    let* title = string_size ~gen:printable (int_range 0 20) in
    let* rows = list_size (int_range 0 12) (list_repeat width gen_cell) in
    let t =
      Stats.Table.create ~title
        ~columns:(List.init width (Printf.sprintf "c%d"))
    in
    List.iter (Stats.Table.add_row t) rows;
    return t)

let codec_cases =
  [
    case "outcome round-trips and renders identically" (fun () ->
        let o = some_outcome () in
        let e = Codec.encode_outcome o in
        match Codec.decode_outcome e with
        | Error msg -> Alcotest.failf "decode failed: %s" msg
        | Ok o' ->
          check_string "re-encode" e (Codec.encode_outcome o');
          List.iter2
            (fun t t' ->
              check_string "ascii" (Stats.Table.to_ascii t) (Stats.Table.to_ascii t');
              check_string "csv" (Stats.Table.to_csv t) (Stats.Table.to_csv t');
              check_string "md" (Stats.Table.to_markdown t) (Stats.Table.to_markdown t'))
            o.tables o'.tables);
    case "truncation at every length is rejected" (fun () ->
        let e =
          Codec.encode_outcome
            (outcome_of [ table [ [ Stats.Table.Int 1; Stats.Table.Int 2 ] ] ])
        in
        for len = 0 to String.length e - 1 do
          match Codec.decode_outcome (String.sub e 0 len) with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "accepted a %d-byte truncation" len
        done);
    case "every single-bit flip is rejected" (fun () ->
        let e = Codec.encode_outcome (some_outcome ()) in
        for i = 0 to String.length e - 1 do
          for bit = 0 to 7 do
            let b = Bytes.of_string e in
            Bytes.set b i (Char.chr (Char.code e.[i] lxor (1 lsl bit)));
            match Codec.decode_outcome (Bytes.to_string b) with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted flip at byte %d bit %d" i bit
          done
        done);
    case "kind confusion is rejected" (fun () ->
        (* The kind byte (offset 5) of another record kind, under a
           valid CRC: only the kind check can reject it. *)
        let e = Bytes.of_string (Codec.encode_outcome (some_outcome ())) in
        let body = Bytes.length e - 4 in
        List.iter
          (fun kind ->
            Bytes.set_uint8 e 5 kind;
            Bytes.set_int32_le e body
              (Store.Crc32.digest (Bytes.sub_string e 0 body));
            check_bool
              (Printf.sprintf "kind %d as outcome" kind)
              true
              (Result.is_error (Codec.decode_outcome (Bytes.to_string e))))
          [ 1; 2; 4 ]);
    case "trailing garbage is rejected" (fun () ->
        let e = Codec.encode_outcome (outcome_of [ table [] ]) in
        check_bool "garbage" true (Result.is_error (Codec.decode_outcome (e ^ "x"))));
    qcase ~count:200 "random tables round-trip" gen_table (fun t ->
        let e = Codec.encode_outcome (outcome_of [ t ]) in
        match Codec.decode_outcome e with
        | Ok { tables = [ t' ]; _ } ->
          e = Codec.encode_outcome (outcome_of [ t' ])
          && Stats.Table.to_csv t = Stats.Table.to_csv t'
          && Stats.Table.to_ascii t = Stats.Table.to_ascii t'
        | Ok _ | Error _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Key *)

let key_cases =
  [
    case "stable and sensitive" (fun () ->
        let derive = Store.Key.derive in
        let k = derive ~exp_id:"e1" ~seed:1 ~quick:false ~backend:"dense" in
        check_string "deterministic" k
          (derive ~exp_id:"e1" ~seed:1 ~quick:false ~backend:"dense");
        let distinct =
          [
            derive ~exp_id:"e2" ~seed:1 ~quick:false ~backend:"dense";
            derive ~exp_id:"e1" ~seed:2 ~quick:false ~backend:"dense";
            derive ~exp_id:"e1" ~seed:1 ~quick:true ~backend:"dense";
            derive ~exp_id:"e1" ~seed:1 ~quick:false ~backend:"implicit";
          ]
        in
        List.iter (fun k' -> check_bool "distinct" false (k = k')) distinct);
    case "fingerprint is a nonempty digest over many files" (fun () ->
        check_bool "hex" true (String.length (Store.Key.fingerprint ()) = 32);
        check_bool "files" true (Store.Key.fingerprinted_sources () > 50));
  ]

(* ------------------------------------------------------------------ *)
(* Objects *)

let flip_byte path pos =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string data in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let count_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | files -> Array.length files

let objects_cases =
  [
    case "put/get round-trip with metadata" (fun () ->
        with_tmp_dir (fun dir ->
            let s = Objects.open_ ~dir in
            let entry = Objects.put s ~key:"k1" ~meta:[ ("exp", "e1") ] "hello bytes" in
            check_int "size" 11 entry.size;
            (match Objects.get s ~key:"k1" with
            | Some (bytes, e) ->
              check_string "bytes" "hello bytes" bytes;
              check_string "digest" entry.digest e.digest;
              check_string "meta" "e1" (List.assoc "exp" e.meta)
            | None -> Alcotest.fail "expected a hit");
            check_bool "unknown key" true (Objects.get s ~key:"nope" = None)));
    case "index survives reopen" (fun () ->
        with_tmp_dir (fun dir ->
            let s = Objects.open_ ~dir in
            ignore (Objects.put s ~key:"k" ~meta:[ ("seed", "7") ] "payload");
            let s' = Objects.open_ ~dir in
            match Objects.get s' ~key:"k" with
            | Some (bytes, e) ->
              check_string "bytes" "payload" bytes;
              check_string "meta" "7" (List.assoc "seed" e.meta)
            | None -> Alcotest.fail "lost across reopen"));
    case "bit flip: miss, quarantine, repopulate" (fun () ->
        with_tmp_dir (fun dir ->
            let s = Objects.open_ ~dir in
            let entry = Objects.put s ~key:"k" ~meta:[] "some important bytes" in
            flip_byte (Objects.object_path s ~digest:entry.digest) 3;
            check_bool "corrupt read misses" true (Objects.get s ~key:"k" = None);
            check_bool "quarantined" true (count_files (Objects.quarantine_dir s) > 0);
            ignore (Objects.put s ~key:"k" ~meta:[] "some important bytes");
            match Objects.get s ~key:"k" with
            | Some (bytes, _) -> check_string "repopulated" "some important bytes" bytes
            | None -> Alcotest.fail "repopulation failed"));
    case "truncated object: miss, not a wrong answer" (fun () ->
        with_tmp_dir (fun dir ->
            let s = Objects.open_ ~dir in
            let entry = Objects.put s ~key:"k" ~meta:[] "0123456789" in
            let path = Objects.object_path s ~digest:entry.digest in
            let oc = open_out_bin path in
            output_string oc "0123";
            close_out oc;
            check_bool "miss" true (Objects.get s ~key:"k" = None)));
    case "identical put is idempotent" (fun () ->
        with_tmp_dir (fun dir ->
            let s = Objects.open_ ~dir in
            ignore (Objects.put s ~key:"k" ~meta:[] "same");
            ignore (Objects.put s ~key:"k" ~meta:[] "same");
            check_int "one manifest entry" 1 (List.length (Objects.entries s))));
    case "rebinding a key serves the new bytes" (fun () ->
        with_tmp_dir (fun dir ->
            let s = Objects.open_ ~dir in
            ignore (Objects.put s ~key:"k" ~meta:[] "old");
            ignore (Objects.put s ~key:"k" ~meta:[] "new");
            match Objects.get s ~key:"k" with
            | Some (bytes, _) -> check_string "latest wins" "new" bytes
            | None -> Alcotest.fail "expected a hit"));
    case "crash-truncated manifest line is skipped" (fun () ->
        with_tmp_dir (fun dir ->
            let s = Objects.open_ ~dir in
            ignore (Objects.put s ~key:"good" ~meta:[] "bytes");
            let oc =
              open_out_gen [ Open_append; Open_binary ] 0o644 (Objects.manifest_path s)
            in
            output_string oc "{\"key\":\"half";  (* no newline: torn write *)
            close_out oc;
            let s' = Objects.open_ ~dir in
            check_int "only the good entry" 1 (List.length (Objects.entries s'));
            check_bool "still served" true (Objects.get s' ~key:"good" <> None)));
  ]

(* ------------------------------------------------------------------ *)
(* Gc *)

let gc_cases =
  [
    case "keeps newest per key, drops superseded objects" (fun () ->
        with_tmp_dir (fun dir ->
            let s = Objects.open_ ~dir in
            ignore (Objects.put s ~key:"k" ~meta:[] "version one");
            ignore (Objects.put s ~key:"k" ~meta:[] "version two!");
            let stats = Store.Gc.run s in
            check_int "kept" 1 stats.kept;
            check_int "entries removed" 1 stats.removed_entries;
            check_int "objects removed" 1 stats.removed_objects;
            match Objects.get s ~key:"k" with
            | Some (bytes, _) -> check_string "live version" "version two!" bytes
            | None -> Alcotest.fail "live entry lost"));
    case "age bound drops old entries" (fun () ->
        with_tmp_dir (fun dir ->
            let s = Objects.open_ ~dir in
            let e = Objects.put s ~key:"old" ~meta:[] "old bytes" in
            let stats = Store.Gc.run ~max_age_s:60. ~now:(e.time +. 3600.) s in
            check_int "all dropped" 0 stats.kept;
            check_bool "gone" true (Objects.get s ~key:"old" = None)));
    case "size bound keeps newest first" (fun () ->
        with_tmp_dir (fun dir ->
            let s = Objects.open_ ~dir in
            ignore (Objects.put s ~key:"a" ~meta:[] (String.make 100 'a'));
            ignore (Objects.put s ~key:"b" ~meta:[] (String.make 100 'b'));
            let stats = Store.Gc.run ~max_bytes:150 s in
            check_int "one kept" 1 stats.kept;
            check_bool "newest survives" true (Objects.get s ~key:"b" <> None);
            check_bool "oldest dropped" true (Objects.get s ~key:"a" = None)));
    case "empties the quarantine" (fun () ->
        with_tmp_dir (fun dir ->
            let s = Objects.open_ ~dir in
            let entry = Objects.put s ~key:"k" ~meta:[] "bytes to corrupt" in
            flip_byte (Objects.object_path s ~digest:entry.digest) 0;
            ignore (Objects.get s ~key:"k");
            check_bool "something quarantined" true (count_files (Objects.quarantine_dir s) > 0);
            ignore (Store.Gc.run s);
            check_int "quarantine empty" 0 (count_files (Objects.quarantine_dir s))));
  ]

(* ------------------------------------------------------------------ *)
(* Checkpoint + resume *)

let with_ctx dir run_key f =
  Checkpoint.activate ~dir ~run_key;
  Fun.protect ~finally:Checkpoint.deactivate f

let checkpoint_cases =
  [
    case "chunk bounds are a pure function of trials" (fun () ->
        List.iter
          (fun trials ->
            let c = Checkpoint.chunk_size ~trials in
            check_bool "positive" true (c >= 1);
            check_bool "<= 16 chunks" true ((trials + c - 1) / c <= 16))
          [ 1; 2; 15; 16; 17; 40; 100; 1000 ]);
    case "save/load round-trip" (fun () ->
        with_tmp_dir (fun dir ->
            with_ctx dir "rk" (fun () ->
                let slot = Option.get (Checkpoint.next_slot ~trials:10) in
                Checkpoint.save_chunk slot ~lo:0 ~hi:5 [| 10; 20; 30; 40; 50 |];
                match Checkpoint.load_chunk slot ~lo:0 ~hi:5 with
                | Some values -> Alcotest.(check (array int)) "values" [| 10; 20; 30; 40; 50 |] values
                | None -> Alcotest.fail "chunk not found")));
    case "missing / corrupted / misbounded chunks load as None" (fun () ->
        with_tmp_dir (fun dir ->
            with_ctx dir "rk" (fun () ->
                let slot = Option.get (Checkpoint.next_slot ~trials:10) in
                check_bool "missing" true
                  ((Checkpoint.load_chunk slot ~lo:0 ~hi:5 : int array option) = None);
                Checkpoint.save_chunk slot ~lo:0 ~hi:5 [| 1; 2; 3; 4; 5 |];
                check_bool "wrong bounds" true
                  ((Checkpoint.load_chunk slot ~lo:0 ~hi:6 : int array option) = None));
            check_int "one chunk on disk" 1 (Checkpoint.pending_chunks ~dir ~run_key:"rk");
            (* Corrupt the chunk file in place: it must load as None and
               be deleted so the trials recompute. *)
            with_ctx dir "rk" (fun () ->
                let slot = Option.get (Checkpoint.next_slot ~trials:10) in
                let sub = Filename.concat (Filename.concat dir "checkpoints") "rk" in
                Array.iter
                  (fun f -> flip_byte (Filename.concat sub f) 9)
                  (Sys.readdir sub);
                check_bool "corrupt" true
                  ((Checkpoint.load_chunk slot ~lo:0 ~hi:5 : int array option) = None));
            check_int "deleted" 0 (Checkpoint.pending_chunks ~dir ~run_key:"rk")));
    case "no context means no slots" (fun () ->
        check_bool "inactive" false (Checkpoint.active ());
        check_bool "no slot" true (Checkpoint.next_slot ~trials:5 = None));
    case "interrupt then resume is equivalent and skips loaded trials" (fun () ->
        with_tmp_dir (fun dir ->
            let trials = 40 in
            let f i trial_rng = (i * 1000) + Prng.Rng.int trial_rng 1000 in
            let fresh = Sim.Runner.map (rng ~seed:7 ()) ~trials f in
            (* Interrupted run: trial 17 explodes, so chunks past it are
               never written (chunk size for 40 trials is 3 — chunks
               [0,3) .. [12,15) land on disk, [15,18) dies mid-flight). *)
            (try
               with_ctx dir "rk" (fun () ->
                   ignore
                     (Sim.Runner.map (rng ~seed:7 ()) ~trials (fun i r ->
                          if i >= 17 then failwith "injected crash" else f i r)))
             with Failure _ -> ());
            check_bool "some chunks persisted" true
              (Checkpoint.pending_chunks ~dir ~run_key:"rk" > 0);
            (* Resumed run: same key, full function, tracking which
               trials actually execute. *)
            let executed = Array.make trials false in
            let resumed =
              with_ctx dir "rk" (fun () ->
                  Sim.Runner.map (rng ~seed:7 ()) ~trials (fun i r ->
                      executed.(i) <- true;
                      f i r))
            in
            Alcotest.(check (array int)) "resumed = fresh" fresh resumed;
            check_bool "early trials loaded, not re-executed" false executed.(0);
            check_bool "trial 14 loaded" false executed.(14);
            check_bool "trial 20 executed" true executed.(20);
            Checkpoint.clean ~dir ~run_key:"rk";
            check_int "cleaned" 0 (Checkpoint.pending_chunks ~dir ~run_key:"rk")));
    case "checkpointed run from scratch equals plain run" (fun () ->
        with_tmp_dir (fun dir ->
            let trials = 23 in
            let f _ trial_rng = Prng.Rng.float trial_rng in
            let plain = Sim.Runner.map (rng ~seed:9 ()) ~trials f in
            let ck =
              with_ctx dir "rk2" (fun () -> Sim.Runner.map (rng ~seed:9 ()) ~trials f)
            in
            Alcotest.(check (array (float 0.))) "identical" plain ck));
  ]

(* ------------------------------------------------------------------ *)
(* Cache + atomic report writes (satellites) *)

let cache_cases =
  [
    case "experiment outcome round-trips through the store" (fun () ->
        with_tmp_dir (fun dir ->
            match Sim.Experiments.find "e6" with
            | None -> Alcotest.fail "e6 not registered"
            | Some exp ->
              let s = Objects.open_ ~dir in
              let seed = Sim.Experiments.default_seed in
              check_bool "cold miss" true (Sim.Cache.get s exp ~seed ~quick:true = None);
              let outcome = exp.run ~quick:true ~seed in
              Sim.Cache.put s exp ~seed ~quick:true outcome;
              (match Sim.Cache.get s exp ~seed ~quick:true with
              | None -> Alcotest.fail "expected a hit"
              | Some cached ->
                check_string "renders identically" (Sim.Outcome.render outcome)
                  (Sim.Outcome.render cached));
              check_bool "other seed misses" true
                (Sim.Cache.get s exp ~seed:(seed + 1) ~quick:true = None)));
    case "report files publish atomically (no .tmp left behind)" (fun () ->
        with_tmp_dir (fun dir ->
            match Sim.Experiments.find "e6" with
            | None -> Alcotest.fail "e6 not registered"
            | Some exp ->
              let outcome = exp.run ~quick:true ~seed:1 in
              let paths = Sim.Report.save_csv ~dir exp outcome in
              let md = Sim.Report.save_markdown ~dir exp outcome in
              List.iter
                (fun p -> check_bool (p ^ " exists") true (Sys.file_exists p))
                (md :: paths);
              Array.iter
                (fun f ->
                  check_bool (f ^ " is not a temp file") false
                    (Filename.check_suffix f ".tmp"))
                (Sys.readdir dir)));
  ]

let suites =
  [
    ("store-crc32", crc_cases);
    ("store-codec", codec_cases);
    ("store-key", key_cases);
    ("store-objects", objects_cases);
    ("store-gc", gc_cases);
    ("store-checkpoint", checkpoint_cases);
    ("store-cache", cache_cases);
  ]
