% Fixed: the inliner substituted a literal actual for a read-only formal
% even where the callee indexes that formal, and left `p0(1.0)` naming
% the caller's own `p0`, so compiled code read -1 from the caller's
% matrix where the interpreter read the callee's 0. Formals the callee
% indexes are now copied, never replaced by a literal.
% Found by the default fuzzing grammar (seed 15021).
% entry: f0
% arg: scalar -1.0
function r = f0(p0)
p0(2.0, 2.0) = 5.0;
r = f1(0.0);
function r = f1(p0)
r = p0(1.0);
