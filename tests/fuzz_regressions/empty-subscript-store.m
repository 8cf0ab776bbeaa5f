% Fixed: an indexed store with no subscripts (`y() = 5`) crashed the
% JIT's code selector. Its scalar-store fast path accepted zero real
% subscripts and then read the first one. Every mode now raises the
% interpreter's error.
% entry: f0
% arg: scalar 2.0
function r = f0(x)
y = zeros(1, 3);
y() = 5;
r = y;
