(* Guest memory (Memsys.Mem): paged storage, the last-page cache, the
   written-word bitmap behind [dump], byte access and addresses with the
   top bit set — checked directly and against a word-table model. *)

module M = Memsys.Mem

let check_i64 = Alcotest.check Alcotest.int64
let check_int = Alcotest.check Alcotest.int
let dump_t = Alcotest.(list (pair int64 int64))

let test_page_edges () =
  let m = M.create () in
  (* last word of page 0, first and last of page 1, first of page 2 *)
  M.store m 0x0FF8L 1L;
  M.store m 0x1000L 2L;
  M.store m 0x1FF8L 3L;
  M.store m 0x2000L 4L;
  check_i64 "last word of page 0" 1L (M.load m 0x0FF8L);
  check_i64 "first word of page 1" 2L (M.load m 0x1000L);
  check_i64 "last word of page 1" 3L (M.load m 0x1FF8L);
  check_i64 "first word of page 2" 4L (M.load m 0x2000L);
  check_i64 "neighbour untouched" 0L (M.load m 0x0FF0L);
  check_i64 "unaligned load reads the enclosing word" 2L (M.load m 0x1005L);
  Alcotest.check dump_t "dump"
    [ (0x0FF8L, 1L); (0x1000L, 2L); (0x1FF8L, 3L); (0x2000L, 4L) ]
    (M.dump m)

let test_zero_stores_dumped () =
  let m = M.create () in
  M.store m 0x40L 0L;
  M.store m 0x48L 7L;
  M.store m 0x48L 0L;
  check_i64 "unwritten word reads 0" 0L (M.load m 0x50L);
  Alcotest.check dump_t "zero-valued stores are listed, unwritten words not"
    [ (0x40L, 0L); (0x48L, 0L) ]
    (M.dump m)

let test_clear_resets_cache () =
  let m = M.create () in
  M.store m 0x3000L 5L;
  check_i64 "stored" 5L (M.load m 0x3000L);
  M.clear m;
  check_i64 "cleared page reads 0" 0L (M.load m 0x3000L);
  Alcotest.check dump_t "dump empty" [] (M.dump m);
  M.store m 0x3008L 6L;
  check_i64 "page recreated" 6L (M.load m 0x3008L);
  check_i64 "old word stays gone" 0L (M.load m 0x3000L)

let test_high_addresses () =
  let m = M.create () in
  let top = 0xFFFF_FFFF_FFFF_FFF8L in
  let sign = 0x8000_0000_0000_0000L in
  M.store m top 1L;
  M.store m sign 2L;
  M.store m 0x7FFF_FFFF_FFFF_FFF8L 3L;
  M.store m 0L 4L;
  check_i64 "top word" 1L (M.load m top);
  check_i64 "sign-bit word" 2L (M.load m sign);
  check_i64 "largest positive word" 3L (M.load m 0x7FFF_FFFF_FFFF_FFF8L);
  check_i64 "address 0" 4L (M.load m 0L);
  check_i64 "top page, other word" 0L (M.load m 0xFFFF_FFFF_FFFF_F000L);
  Alcotest.check dump_t "sorted by signed address"
    [ (sign, 2L); (top, 1L); (0L, 4L); (0x7FFF_FFFF_FFFF_FFF8L, 3L) ]
    (M.dump m);
  M.store_byte m 0xFFFF_FFFF_FFFF_FFFFL 0xAB;
  check_int "byte at the last address" 0xAB
    (M.load_byte m 0xFFFF_FFFF_FFFF_FFFFL);
  check_i64 "byte lands in the top byte of the word" 0xAB00_0000_0000_0001L
    (M.load m top)

let test_byte_access () =
  let m = M.create () in
  M.store m 0x100L 0x0807_0605_0403_0201L;
  List.iteri
    (fun i expect -> check_int (Printf.sprintf "byte %d" i) expect
        (M.load_byte m (Int64.add 0x100L (Int64.of_int i))))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  M.store_byte m 0x103L 0x1FF;
  check_i64 "store_byte keeps the low 8 bits, other bytes intact"
    0x0807_0605_FF03_0201L (M.load m 0x100L);
  M.store_byte m 0x20L 0;
  Alcotest.check dump_t "a byte store marks its word written"
    [ (0x20L, 0L); (0x100L, 0x0807_0605_FF03_0201L) ]
    (M.dump m)

(* ------------------------------------------------------------------ *)
(* Model test: the word table [Mem] replaced.                          *)

type op = Store of int64 * int64 | Store_byte of int64 * int | Load of int64 | Clear

let word a = Int64.logand a (Int64.lognot 7L)

(* The reference: a Hashtbl of aligned words, as guest memory was kept
   before it was paged. *)
let model_apply tbl = function
  | Store (a, v) ->
      Hashtbl.replace tbl (word a) v;
      None
  | Store_byte (a, b) ->
      let w = Option.value ~default:0L (Hashtbl.find_opt tbl (word a)) in
      let shift = 8 * Int64.to_int (Int64.logand a 7L) in
      let mask = Int64.shift_left 0xFFL shift in
      Hashtbl.replace tbl (word a)
        (Int64.logor (Int64.logand w (Int64.lognot mask))
           (Int64.shift_left (Int64.of_int (b land 0xFF)) shift));
      None
  | Load a -> Some (Option.value ~default:0L (Hashtbl.find_opt tbl (word a)))
  | Clear ->
      Hashtbl.reset tbl;
      None

let mem_apply m = function
  | Store (a, v) ->
      M.store m a v;
      None
  | Store_byte (a, b) ->
      M.store_byte m a b;
      None
  | Load a -> Some (M.load m a)
  | Clear ->
      M.clear m;
      None

(* Addresses cluster near page edges, in a few pages, and at the top of
   the address space, so page switches and cache hits both happen. *)
let gen_addr =
  let open QCheck.Gen in
  let bases =
    [ 0L; 0x1000L; 0x2000L; 0x7FFF_F000L; 0x8000_0000_0000_0000L; 0xFFFF_FFFF_FFFF_F000L ]
  in
  map2
    (fun base off -> Int64.add base (Int64.of_int off))
    (oneofl bases)
    (oneof [ int_range 0 4095; int_range 4080 4095; int_range 0 15 ])

let gen_op =
  let open QCheck.Gen in
  frequency
    [
      (6, map2 (fun a v -> Store (a, v)) gen_addr (oneof [ return 0L; map Int64.of_int int ]));
      (2, map2 (fun a b -> Store_byte (a, b)) gen_addr (int_range 0 255));
      (6, map (fun a -> Load a) gen_addr);
      (1, return Clear);
    ]

let print_op = function
  | Store (a, v) -> Printf.sprintf "store 0x%Lx 0x%Lx" a v
  | Store_byte (a, b) -> Printf.sprintf "store_byte 0x%Lx 0x%x" a b
  | Load a -> Printf.sprintf "load 0x%Lx" a
  | Clear -> "clear"

let model_test =
  QCheck.Test.make ~name:"load/store/dump agree with a word table" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_op) QCheck.Gen.(list_size (int_range 0 60) gen_op))
    (fun ops ->
      let m = M.create () and tbl = Hashtbl.create 16 in
      List.for_all (fun op -> mem_apply m op = model_apply tbl op) ops
      && M.dump m
         = List.sort compare (Hashtbl.fold (fun a v acc -> (a, v) :: acc) tbl []))

let () =
  Alcotest.run "mem"
    [
      ( "pages",
        [
          Alcotest.test_case "stores at both edges of a page" `Quick test_page_edges;
          Alcotest.test_case "zero-valued stores listed by dump" `Quick
            test_zero_stores_dumped;
          Alcotest.test_case "clear resets the last-page cache" `Quick
            test_clear_resets_cache;
          Alcotest.test_case "addresses with the top bit set" `Quick
            test_high_addresses;
          Alcotest.test_case "byte access within a word" `Quick test_byte_access;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest model_test ]);
    ]
