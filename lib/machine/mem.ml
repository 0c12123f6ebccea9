(* Guest memory is a table of 4 KiB pages keyed by page number (the
   address shifted right by [page_bits], unsigned, so it fits an [int]
   for every 64-bit address).  Words are stored little-endian in the
   page's bytes.  Each page also keeps a bitmap of the words ever stored,
   so [dump] lists exactly those words — zero-valued stores included —
   and never the zeros a fresh page starts with. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let word_mask = page_size - 8  (* page offset of the enclosing word *)
let byte_mask = page_size - 1

type page = {
  data : Bytes.t;  (* [page_size] bytes *)
  written : Bytes.t;  (* one bit per word: stored at least once *)
}

module Itbl = Hashtbl.Make (Int)

type t = {
  pages : page Itbl.t;
  mutable last_pn : int;  (* page number of [last], or -1 *)
  mutable last : page;  (* one-entry cache of the last page touched *)
  owners : int Itbl.t;  (* cache line (addr/64) -> tid *)
  line_sharers : int list Itbl.t;  (* line -> tids seen *)
}

(* What loads from a page never stored to read: all zeros.  Never
   written, and never cached as [last], so the first store to such a
   page goes through [page_for_store]. *)
let zero_page =
  { data = Bytes.make page_size '\000'; written = Bytes.empty }

let create () =
  {
    pages = Itbl.create 64;
    last_pn = -1;
    last = zero_page;
    owners = Itbl.create 64;
    line_sharers = Itbl.create 64;
  }

let[@inline] page_number addr = Int64.to_int (Int64.shift_right_logical addr page_bits)

(* Low bits of the address as an [int] ([Int64.to_int] keeps them). *)
let[@inline] offset addr mask = Int64.to_int addr land mask

(* The page lookups are split into an inlined last-page check and an
   out-of-line table lookup, so [load] and [store] inline into their
   callers and a hit costs one comparison with no boxed address. *)
let find_page_slow m pn =
  match Itbl.find m.pages pn with
  | p ->
      m.last_pn <- pn;
      m.last <- p;
      p
  | exception Not_found -> zero_page

let[@inline] page_for_load m pn =
  if pn = m.last_pn then m.last else find_page_slow m pn

let make_page_slow m pn =
  let p =
    match Itbl.find m.pages pn with
    | p -> p
    | exception Not_found ->
        let p =
          {
            data = Bytes.make page_size '\000';
            written = Bytes.make (page_size / 64) '\000';
          }
        in
        Itbl.add m.pages pn p;
        p
  in
  m.last_pn <- pn;
  m.last <- p;
  p

let[@inline] page_for_store m pn =
  if pn = m.last_pn then m.last else make_page_slow m pn

let[@inline] mark_written p off =
  let w = off lsr 3 in
  let i = w lsr 3 in
  Bytes.set p.written i
    (Char.unsafe_chr (Char.code (Bytes.get p.written i) lor (1 lsl (w land 7))))

let[@inline] load m addr =
  Bytes.get_int64_le (page_for_load m (page_number addr)).data
    (offset addr word_mask)

let[@inline] store m addr v =
  let p = page_for_store m (page_number addr) in
  let off = offset addr word_mask in
  Bytes.set_int64_le p.data off v;
  mark_written p off

let load_byte m addr =
  Char.code (Bytes.get (page_for_load m (page_number addr)).data (offset addr byte_mask))

let store_byte m addr b =
  let p = page_for_store m (page_number addr) in
  let off = offset addr byte_mask in
  Bytes.set p.data off (Char.unsafe_chr (b land 0xFF));
  mark_written p off

let line addr = Int64.to_int (Int64.div addr 64L)
let owner m addr = Itbl.find_opt m.owners (line addr)

let sharers m addr =
  match Itbl.find_opt m.line_sharers (line addr) with
  | Some l -> List.length l
  | None -> 0

let acquire_line m addr ~tid =
  let l = line addr in
  (match Itbl.find_opt m.line_sharers l with
  | Some ts when List.mem tid ts -> ()
  | Some ts -> Itbl.replace m.line_sharers l (tid :: ts)
  | None -> Itbl.replace m.line_sharers l [ tid ]);
  match Itbl.find_opt m.owners l with
  | Some t when t = tid -> false
  | Some _ ->
      Itbl.replace m.owners l tid;
      true
  | None ->
      Itbl.replace m.owners l tid;
      false

let clear m =
  Itbl.reset m.pages;
  m.last_pn <- -1;
  m.last <- zero_page;
  Itbl.reset m.owners;
  Itbl.reset m.line_sharers

let dump m =
  Itbl.fold
    (fun pn p acc ->
      let base = Int64.shift_left (Int64.of_int pn) page_bits in
      let acc = ref acc in
      for w = 0 to (page_size / 8) - 1 do
        if Char.code (Bytes.get p.written (w lsr 3)) land (1 lsl (w land 7)) <> 0
        then begin
          let off = w * 8 in
          acc := (Int64.add base (Int64.of_int off), Bytes.get_int64_le p.data off) :: !acc
        end
      done;
      !acc)
    m.pages []
  |> List.sort compare
