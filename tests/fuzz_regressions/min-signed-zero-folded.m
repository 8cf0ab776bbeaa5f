% Fixed: constant folding kept the second operand of a min tie while
% the interpreter keeps the first, so spec and falcon folded
% 1/min(0,-0) to -Inf where the interpreter computed +Inf. The folder
% now calls the same scalar definition as the VM and the builtin.
% entry: f0
% arg: scalar 1.0
function r = f0(p)
z = -0;
r = 1 / min(0, z) + p;
