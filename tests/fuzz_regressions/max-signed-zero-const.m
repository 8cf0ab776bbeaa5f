% Fixed: max of the constants 0 and -0 kept the first operand in the
% VM's FBin and the second in the interpreter, so jit and warm computed
% +Inf where the interpreter computed -Inf.
% entry: f0
% arg: scalar 1.0
function r = f0(p)
z = -0;
r = 1 / max(0, z) + p;
