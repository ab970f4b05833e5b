(* Figure 14 (appendix): the Figure 6 grid at 256 B objects. The paper
   reports the shapes match the 1 KB case. *)

let run ~fast = Fig6.run_size ~fast ~object_size:256
