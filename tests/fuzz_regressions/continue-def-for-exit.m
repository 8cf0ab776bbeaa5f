% Fixed: disambiguation dropped definitions that reach the loop head
% only through `continue`, so after the loop `i` resolved to the
% builtin sqrt(-1) in compiled code (0+1i) while the interpreter read
% the variable (5). Continue states now join into the loop head.
% entry: f0
% arg: scalar 3.0
function y = f0(n)
for k = 1:n
  if k > 0
    i = 5;
    continue;
  end
end
y = i;
