(* Quickstart: assemble a small x86 guest program, run it through the
   Risotto DBT on the modelled Arm host, and inspect the result.

     dune exec examples/quickstart.exe *)

module I = X86.Insn
module R = X86.Reg
open X86.Asm

(* A guest program: compute 13! iteratively, store it to memory, print
   "hi\n" through the write syscall, and exit with code 7. *)
let guest =
  [
    Label "main";
    Ins (I.Mov_ri (R.RAX, 1L));
    Ins (I.Mov_ri (R.RBX, 13L));
    Label "loop";
    Ins (I.Alu (I.Imul, R.RAX, I.R R.RBX));
    Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
    Ins (I.Cmp (R.RBX, I.I 0L));
    Jcc_lbl (I.Ne, "loop");
    Ins (I.Store ({ base = None; index = None; disp = 0x5000L }, I.R R.RAX));
    (* write(1, "hi\n", 3) *)
    Ins (I.Mov_ri (R.RCX, 0x0a6968L));
    Ins (I.Store ({ base = None; index = None; disp = 0x5100L }, I.R R.RCX));
    Ins (I.Mov_ri (R.RAX, 1L));
    Ins (I.Mov_ri (R.RDI, 1L));
    Ins (I.Mov_ri (R.RSI, 0x5100L));
    Ins (I.Mov_ri (R.RDX, 3L));
    Ins I.Syscall;
    (* exit(7) *)
    Ins (I.Mov_ri (R.RAX, 60L));
    Ins (I.Mov_ri (R.RDI, 7L));
    Ins I.Syscall;
  ]

let () =
  let image = Image.Gelf.build ~entry:"main" guest in
  Format.printf "Guest binary: %d bytes of x86 at 0x%Lx, entry 0x%Lx@."
    (String.length image.Image.Gelf.text)
    image.Image.Gelf.text_base image.Image.Gelf.entry;

  (* Run under full Risotto. *)
  let engine = Core.Engine.create Core.Config.risotto image in
  let thread = Core.Engine.run engine in
  let arm = thread.Core.Engine.arm in

  Format.printf "guest wrote: %S@." (Buffer.contents arm.Arm.Machine.output);
  Format.printf "exit code:   %Ld@." arm.Arm.Machine.exit_code;
  Format.printf "13! in memory: %Ld@."
    (Memsys.Mem.load (Core.Engine.memory engine) 0x5000L);

  let stats = Core.Engine.stats engine in
  Format.printf
    "@[<v>run statistics:@,\
    \  model cycles        %d@,\
    \  host instructions   %d@,\
    \  fences executed     %d@,\
    \  blocks translated   %d@,\
    \  cache hits          %d@]@."
    (Core.Engine.cycles thread) arm.Arm.Machine.insns arm.Arm.Machine.fences
    stats.Core.Engine.blocks_translated stats.Core.Engine.cache_hits;

  (* Compare the four configurations of the paper's evaluation. *)
  Format.printf "@.%-12s %10s %8s@." "config" "cycles" "fences";
  List.iter
    (fun config ->
      let engine = Core.Engine.create config image in
      let t = Core.Engine.run engine in
      Format.printf "%-12s %10d %8d@." config.Core.Config.name
        (Core.Engine.cycles t) t.Core.Engine.arm.Arm.Machine.fences)
    Core.Config.all;

  (* Show the translated code of the hot block: the frontend's TCG after
     the risotto optimizer passes, and the Arm code the engine ran. *)
  let loop_pc = Image.Gelf.symbol image "loop" in
  let risotto = Core.Config.risotto in
  let frontend =
    Core.Frontend.create risotto image (Core.Engine.links engine)
  in
  Format.printf "@.TCG IR of the loop block under risotto:@.%a@."
    Tcg.Block.pp
    (Tcg.Pipeline.run risotto.Core.Config.passes
       (Core.Frontend.translate frontend loop_pc));
  Format.printf "@.Arm host code:@.";
  Array.iteri
    (fun i insn -> Format.printf "  %2d: %a@." i Arm.Insn.pp insn)
    (Core.Engine.lookup_block engine loop_pc)
