% Fixed: the VM's max kept the first operand on a tie, the interpreter
% the second, so 1/max(0,-0) was +Inf in jit, warm and falcon but -Inf
% in the interpreter. Every mode now evaluates max through the one
% scalar definition the builtin uses.
% entry: f0
% arg: scalar 0.0
% arg: scalar -0.0
function r = f0(a, b)
r = 1 / max(a, b);
